//! Calibration check: per-benchmark zero-chunk and last-value-repeat
//! fractions against the paper's Fig. 12 (~0.31) and Fig. 13 (~0.39)
//! targets.
//!
//! ```text
//! cargo run --release -p desc-workloads --example calibration
//! ```

use desc_workloads::{parallel_suite, ChunkStats};
fn main() {
    let mut zs = vec![];
    let mut rs = vec![];
    for p in parallel_suite() {
        let s = ChunkStats::measure_stream(&mut p.value_stream(33), 800);
        println!("{:16} zero={:.3} repeat={:.3}", p.name, s.zero_fraction(), s.repeat_fraction());
        zs.push(s.zero_fraction());
        rs.push(s.repeat_fraction());
    }
    let g = |v: &Vec<f64>| (v.iter().map(|x: &f64| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!("GEOMEAN zero={:.3} repeat={:.3}  (paper: 0.31, 0.39)", g(&zs), g(&rs));
}
