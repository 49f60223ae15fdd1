//! Property tests for the cache model: the physical monotonicities
//! every valid calibration must respect, checked on every point of the
//! explored design space (5 capacities × 7 bank counts × 5 bus widths
//! × 3 cell × 3 periphery devices = 1,575 configurations).

use desc_cacti::cache::CacheActivity;
use desc_cacti::{CacheConfig, CacheModel, DeviceType, Signaling};
use desc_core::rng::check_property;

/// Every configuration of the explored design space.
fn all_configs() -> Vec<CacheConfig> {
    let mut out = Vec::with_capacity(1575);
    for capacity_bytes in [512usize << 10, 1 << 20, 2 << 20, 8 << 20, 32 << 20] {
        for banks in [1usize, 2, 4, 8, 16, 32, 64] {
            for bus_width_bits in [16usize, 64, 128, 256, 512] {
                for cell_device in DeviceType::ALL {
                    for periphery_device in DeviceType::ALL {
                        out.push(CacheConfig {
                            capacity_bytes,
                            banks,
                            bus_width_bits,
                            cell_device,
                            periphery_device,
                            ..CacheConfig::paper_baseline()
                        });
                    }
                }
            }
        }
    }
    out
}

/// All five CACTI quantities are finite and positive everywhere in
/// the explored design space.
#[test]
fn quantities_are_physical() {
    for config in all_configs() {
        let m = CacheModel::new(config);
        assert!(m.htree_energy_per_transition() > 0.0, "{config:?}");
        assert!(m.htree_energy_per_transition() < 1e-9, "over a nanojoule per flip: {config:?}");
        assert!(m.array_read_energy() > 0.0, "{config:?}");
        assert!(m.leakage_power() > 0.0 && m.leakage_power() < 100.0, "{config:?}");
        assert!(m.area_mm2() > 0.1 && m.area_mm2() < 1000.0, "{config:?}");
        assert!(m.hit_latency_cycles() >= 3, "{config:?}");
        assert!(m.miss_latency_cycles() <= m.hit_latency_cycles(), "{config:?}");
    }
}

/// More capacity → more area, more leakage, costlier wires.
#[test]
fn capacity_monotonicity() {
    for config in all_configs() {
        let small = CacheModel::new(config);
        let big =
            CacheModel::new(CacheConfig { capacity_bytes: config.capacity_bytes * 2, ..config });
        assert!(big.area_mm2() > small.area_mm2(), "{config:?}");
        assert!(big.leakage_power() > small.leakage_power(), "{config:?}");
        assert!(
            big.htree_energy_per_transition() > small.htree_energy_per_transition(),
            "{config:?}"
        );
    }
}

/// Wider buses never lengthen binary transfers; hit latency is
/// monotone non-increasing in width.
#[test]
fn width_monotonicity() {
    for config in all_configs() {
        let narrow = CacheModel::new(config);
        let wide =
            CacheModel::new(CacheConfig { bus_width_bits: config.bus_width_bits * 2, ..config });
        assert!(wide.binary_transfer_cycles() <= narrow.binary_transfer_cycles(), "{config:?}");
        // Extra wires add routing area (a slightly longer tree), so
        // allow one cycle of slack when widening saves no beats.
        assert!(wide.hit_latency_cycles() <= narrow.hit_latency_cycles() + 1, "{config:?}");
    }
}

/// Device-class leakage ordering holds for any organisation.
#[test]
fn device_leakage_ordering() {
    for config in all_configs() {
        let with = |d: DeviceType| {
            CacheModel::new(CacheConfig { cell_device: d, periphery_device: d, ..config })
                .leakage_power()
        };
        assert!(with(DeviceType::Hp) > with(DeviceType::Lop), "{config:?}");
        assert!(with(DeviceType::Lop) > with(DeviceType::Lstp), "{config:?}");
    }
}

/// Low-swing signaling always reduces per-transition energy and
/// never reduces delay.
#[test]
fn low_swing_tradeoff() {
    check_property("low_swing_tradeoff", 1, |rng| {
        for config in all_configs() {
            let swing_v = 0.05 + 0.45 * rng.gen::<f64>();
            let full = CacheModel::new(config);
            let low = CacheModel::new(CacheConfig {
                signaling: Signaling::LowSwing { swing_v },
                ..config
            });
            let label = format!("swing {swing_v} V, {config:?}");
            assert!(
                low.htree_energy_per_transition() < full.htree_energy_per_transition(),
                "{label}"
            );
            assert!(low.htree_delay_cycles() >= full.htree_delay_cycles(), "{label}");
        }
    });
}

/// Energy pricing is linear in activity.
#[test]
fn energy_linear_in_activity() {
    check_property("energy_linear_in_activity", 1, |rng| {
        for config in all_configs() {
            let transitions = rng.gen_range(1u64..1_000_000);
            let reads = rng.gen_range(1u64..100_000);
            let m = CacheModel::new(config);
            let activity = |k: u64| CacheActivity {
                htree_transitions: transitions * k,
                array_reads: reads * k,
                array_writes: 0,
                tag_lookups: reads * k,
                elapsed_s: 0.001 * k as f64,
            };
            let one = m.energy_for(&activity(1));
            let two = m.energy_for(&activity(2));
            assert!(
                (two.total() - 2.0 * one.total()).abs() < 1e-9 * two.total().max(1e-30),
                "{transitions} transitions, {reads} reads, {config:?}"
            );
        }
    });
}
