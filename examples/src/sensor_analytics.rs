//! Non-graph workload on the engine — the §6.2 future-work abstraction in
//! action ("provide abstractions for one dimensional data representations,
//! which would suffice various non-graph workloads as in many existing
//! Hadoop or Spark applications").
//!
//! A fleet of sensors produces one reading per index; the distributed
//! vectors live partitioned across the cluster's machines, and the
//! statistics pipeline (calibration → z-scores → anomaly count →
//! correlation) runs as PGX.D node jobs with driver-side reductions.
//!
//! ```text
//! cargo run -p pgxd-examples --release --bin sensor_analytics
//! ```

use pgxd::vector::DistVec;
use pgxd::{BuildEngine, Config, ReduceOp};
use pgxd_graph::generate;

const SENSORS: usize = 200_000;

fn main() {
    // The "graph" only supplies the index space 0..n (a ring keeps every
    // machine non-empty under edge partitioning).
    let domain = generate::ring(SENSORS);
    let mut engine = Config::builder()
        .machines(4)
        .workers(2)
        .engine(&domain)
        .expect("engine");
    println!("distributed domain: {SENSORS} sensors over 4 machines");

    // Synthetic raw readings: a daily cycle plus sensor-specific noise and
    // a handful of faulty sensors stuck at extreme values.
    let raw = DistVec::<f64>::from_fn(&mut engine, "raw", |i| {
        let phase = (i % 1440) as f64 / 1440.0 * std::f64::consts::TAU;
        let noise = {
            let mut x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            x ^= x >> 33;
            (x % 1000) as f64 / 1000.0 - 0.5
        };
        let faulty = i % 10_007 == 0;
        if faulty {
            85.0
        } else {
            20.0 + 5.0 * phase.sin() + noise
        }
    });

    // Calibration: convert to Kelvin (map in place).
    raw.map_inplace(&mut engine, |_, celsius| celsius + 273.15);

    // Mean and variance via global reductions (driver sequential regions).
    let n = SENSORS as f64;
    let sum = raw.reduce(&engine, ReduceOp::Sum);
    let mean = sum / n;
    let centered = raw.zip_map(&mut engine, &raw, "sq", move |x, _| (x - mean) * (x - mean));
    let var = centered.reduce(&engine, ReduceOp::Sum) / n;
    let std = var.sqrt();
    println!("mean {:.2} K, std {:.2} K", mean, std);

    // Z-scores and anomaly count.
    let z = raw.zip_map(&mut engine, &raw, "z", move |x, _| (x - mean) / std);
    let anomalies = z.zip_map(&mut engine, &z, "anom", |zi, _| i64::from(zi.abs() > 4.0));
    let count = anomalies.reduce(&engine, ReduceOp::Sum);
    println!("{count} sensors flagged at |z| > 4");
    let expected = SENSORS.div_ceil(10_007) as i64;
    assert_eq!(count, expected, "exactly the stuck sensors are flagged");

    // Correlation of neighboring sensors (dot products on the cluster).
    let shifted = DistVec::<f64>::from_fn(&mut engine, "shift", move |i| {
        let phase = ((i + 1) % 1440) as f64 / 1440.0 * std::f64::consts::TAU;
        20.0 + 5.0 * phase.sin() + 273.15
    });
    let sm = shifted.reduce(&engine, ReduceOp::Sum) / n;
    let shifted_centered = shifted.zip_map(&mut engine, &shifted, "zs", move |x, _| x - sm);
    let dot = z.dot(&mut engine, &shifted_centered);
    println!(
        "covariance-style inner product with shifted signal: {:.1}",
        dot
    );

    println!(
        "cluster traffic for the whole pipeline: {} messages",
        engine.cluster().total_stats().msgs_sent
    );
}
