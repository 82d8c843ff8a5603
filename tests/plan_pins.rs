//! Pinned plan numbers: for every paper-scale zoo model, the engine's
//! modeled latency, its critical-path lower bound and the P50/P99/P99.9
//! of a seeded 2000-run measurement, as exact `f64` bits.
//!
//! The values are a regression fence around the list-scheduling core and
//! its seeded noise stream: transfer noise is drawn at dispatch only when
//! a subgraph's input edges move bytes, then one compute draw per
//! dispatch, then one D2H draw per GPU-produced output. Reordering any of
//! those draws, or any change to plan pricing, moves these bits.
//!
//! A second fence pins what the noise-free simulator reports for the
//! same engines — its witness, latency, transferred bytes and timeline —
//! so a change to how those are derived from the run's event log shows
//! up bit for bit.

use duet::prelude::*;
use duet_models::zoo_model;

/// (model, latency_us, critical_path_lb_us, p50, p99, p999) as f64 bits.
const PINS: [(&str, u64, u64, u64, u64, u64); 8] = [
    (
        "wide_and_deep",
        0x40a2ce6c61b96900,
        0x40a2ce6c61b96900,
        0x40a3259cad5dc5be,
        0x40b053029a30de51,
        0x40b726ad1a90a1fd,
    ),
    (
        "siamese",
        0x40c3e6098f89bf9b,
        0x40bac6f17424c69a,
        0x40c3f28288a81854,
        0x40d22ee886e6611d,
        0x40d6e454edb55c48,
    ),
    (
        "mtdnn",
        0x40c7f65dad830ca6,
        0x40be346931007d6c,
        0x40c7fabe90b05784,
        0x40cc58207907c6e4,
        0x40cf5b2a11792360,
    ),
    (
        "resnet18",
        0x40944f27c492ea6d,
        0x4093083e72872634,
        0x40944f5dc5479805,
        0x40961e4d7c6c2a5f,
        0x409db53bd02c4e16,
    ),
    (
        "resnet50",
        0x40a2d75420d07f90,
        0x40a1bed1fd3c9762,
        0x40a2d4fa2bfb8409,
        0x40a464f847bf01a4,
        0x40abcb7e311f4936,
    ),
    (
        "vgg16",
        0x40aff5d226b14f74,
        0x40af68cd5f5a9c98,
        0x40aff02798ca598b,
        0x40b13a46875e208b,
        0x40b7ab6f9bf01f05,
    ),
    (
        "mobilenet",
        0x4083be2b99ebd424,
        0x40818a187c9108b4,
        0x4083c21a3e37c3d9,
        0x40862bf2dde43ced,
        0x408c50ee36cef008,
    ),
    (
        "squeezenet",
        0x40840b6998cb91fa,
        0x407f9fa9c56b270c,
        0x40840e88e41c5146,
        0x40867a6c2e2bb3a4,
        0x408cc400e8565597,
    ),
];

#[test]
fn zoo_plan_numbers_and_noise_stream_are_pinned() {
    let mut mismatches = Vec::new();
    for (name, latency, bound, p50, p99, p999) in PINS {
        let graph = zoo_model(name).expect("zoo model");
        let engine = Duet::builder().build(&graph).expect("engine builds");
        let stats = engine.measure(2000, 7);
        let got = (
            engine.latency_us().to_bits(),
            engine.critical_path_lower_bound_us().to_bits(),
            stats.p50().to_bits(),
            stats.p99().to_bits(),
            stats.p999().to_bits(),
        );
        if got != (latency, bound, p50, p99, p999) {
            mismatches.push(format!(
                "    (\"{name}\", {:#x}, {:#x}, {:#x}, {:#x}, {:#x}),",
                got.0, got.1, got.2, got.3, got.4
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned plan numbers moved; got:\n{}",
        mismatches.join("\n")
    );
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (model, FNV-64 of the witness JSON, latency_us bits,
/// transferred_bytes bits, FNV-64 of the timeline) of one noise-free
/// `simulate_witnessed` run of the default-built engine.
const SIM_PINS: [(&str, u64, u64, u64, u64); 8] = [
    (
        "wide_and_deep",
        0x86a534933a137353,
        0x40a2ce6c61b96900,
        0x4122c00000000000,
        0x1d34fd35d3ea1915,
    ),
    (
        "siamese",
        0x4869279b9eac0ac4,
        0x40c3e6098f89bf9b,
        0x40f1000000000000,
        0xffd1ff89f3605d55,
    ),
    (
        "mtdnn",
        0x19d7b27afe004cb,
        0x40c7f65dad830ca6,
        0x4132020c00000000,
        0x170d1226a60e7da7,
    ),
    (
        "resnet18",
        0x54e6e1618c44f3dd,
        0x40944f27c492ea6d,
        0x41227f4000000000,
        0x3daf8d95b0c93fa6,
    ),
    (
        "resnet50",
        0xe34e09fb5b864fc3,
        0x40a2d75420d07f90,
        0x41227f4000000000,
        0x2fed49822b1e4193,
    ),
    (
        "vgg16",
        0x4ebf798153c34a00,
        0x40aff5d226b14f74,
        0x41227f4000000000,
        0xdacf5d2e6a8bb29,
    ),
    (
        "mobilenet",
        0x13e4ad9c129fa672,
        0x4083be2b99ebd424,
        0x41227f4000000000,
        0xba6dbf032f53897b,
    ),
    (
        "squeezenet",
        0x27a76e986a61c51,
        0x40840b6998cb91fa,
        0x41227f4000000000,
        0xc2ebab24c8bb751e,
    ),
];

#[test]
fn zoo_simulator_outputs_are_pinned() {
    use duet_runtime::{simulate_witnessed, SimNoise};
    let mut mismatches = Vec::new();
    for (name, witness, latency, transferred, timeline) in SIM_PINS {
        let graph = zoo_model(name).expect("zoo model");
        let engine = Duet::builder().build(&graph).expect("engine builds");
        let (sim, w) = simulate_witnessed(
            engine.graph(),
            engine.placed(),
            engine.system(),
            &mut SimNoise::disabled(),
        );
        // Each entry as name, NUL, device, start bits, end bits.
        let mut entries = Vec::new();
        for e in &sim.timeline {
            entries.extend_from_slice(e.name.as_bytes());
            entries.push(0);
            entries.push(e.device as u8);
            entries.extend_from_slice(&e.start_us.to_bits().to_le_bytes());
            entries.extend_from_slice(&e.end_us.to_bits().to_le_bytes());
        }
        let got = (
            fnv64(
                serde_json::to_string(&w)
                    .expect("witness serializes")
                    .as_bytes(),
            ),
            sim.latency_us.to_bits(),
            sim.transferred_bytes.to_bits(),
            fnv64(&entries),
        );
        if got != (witness, latency, transferred, timeline) {
            mismatches.push(format!(
                "    (\"{name}\", {:#x}, {:#x}, {:#x}, {:#x}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned simulator outputs moved; got:\n{}",
        mismatches.join("\n")
    );
}
