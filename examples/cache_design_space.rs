//! Explore the L2 design space with the CACTI-lite model: how bank
//! count, bus width and device class trade energy, delay and area —
//! the exploration behind the paper's Fig. 14.
//!
//! ```text
//! cargo run --example cache_design_space
//! ```

use desc::cacti::{CacheConfig, CacheModel, DeviceType};

fn main() {
    println!(
        "8MB L2 design space at 22nm (per-transition H-tree energy, latency, leakage, area):\n"
    );
    println!(
        "{:>6} {:>6} {:>6} {:>12} {:>10} {:>11} {:>9}",
        "banks", "wires", "device", "pJ/flip", "hit (cyc)", "leakage", "area"
    );
    for device in DeviceType::ALL {
        for banks in [2usize, 8, 32] {
            for wires in [64usize, 128, 256] {
                let model = CacheModel::new(CacheConfig {
                    banks,
                    bus_width_bits: wires,
                    cell_device: device,
                    periphery_device: device,
                    ..CacheConfig::paper_baseline()
                });
                println!(
                    "{:>6} {:>6} {:>6} {:>12.2} {:>10} {:>9.1}mW {:>6.1}mm2",
                    banks,
                    wires,
                    device.label(),
                    model.htree_energy_per_transition() * 1e12,
                    model.hit_latency_cycles(),
                    model.leakage_power() * 1e3,
                    model.area_mm2(),
                );
            }
        }
    }
    println!("\nThe paper's choice — 8 banks, 64-bit bus, LSTP — balances hit");
    println!("latency (Table 1's 19 cycles) against mW-scale leakage; HP devices");
    println!("halve the latency but leak three orders of magnitude more.");
}
