//! ECC playground: inject raw error patterns into each platform's ECC
//! model and watch how the same DRAM fault becomes a CE on one
//! architecture and a UE on another — the causal mechanism behind the
//! paper's cross-platform findings.
//!
//! Run with: `cargo run --release --example ecc_playground`

use mfp_dram::bus::ErrorTransfer;
use mfp_dram::geometry::{DataWidth, Platform};
use mfp_ecc::prelude::*;

fn show(name: &str, t: &ErrorTransfer) {
    print!("{name:<46}");
    for p in Platform::ALL {
        let ecc = PlatformEcc::for_platform(p);
        print!(" {:<8}", ecc.decode(t, DataWidth::X4).to_string());
    }
    println!();
}

/// Builds a pattern confined to one x4 device.
fn device_pattern(dev: u8, bits: &[(u8, u8)]) -> ErrorTransfer {
    ErrorTransfer::from_bits(bits.iter().map(|&(beat, dq)| (beat, dev * 4 + dq)))
}

fn main() {
    println!(
        "{:<46} {:<8} {:<8} {:<8}",
        "pattern (x4 rank)", "Purley", "Whitley", "K920"
    );
    println!("{}", "-".repeat(74));

    show("single bit", &device_pattern(5, &[(0, 1)]));
    show(
        "2 bits, one device, strong (even) beat",
        &device_pattern(5, &[(0, 0), (0, 1)]),
    );
    show(
        "2 bits, one device, weak (odd) beat",
        &device_pattern(5, &[(1, 0), (1, 1)]),
    );
    show(
        "2 DQs across beats 1 and 5 (interval 4)",
        &device_pattern(5, &[(1, 0), (5, 1)]),
    );
    let whole_device: Vec<(u8, u8)> = (0..8).flat_map(|b| (0..4).map(move |q| (b, q))).collect();
    show(
        "whole-device failure (chipkill case)",
        &device_pattern(5, &whole_device),
    );

    let mut two_devices = device_pattern(3, &[(2, 0), (2, 1)]);
    two_devices.set(2, 9 * 4);
    show("two devices erring in the same beat", &two_devices);

    let mut far_devices = device_pattern(3, &[(0, 0)]);
    far_devices.set(5, 9 * 4);
    show("two devices, distant beats", &far_devices);

    println!();
    println!("Reading: 'CE' = corrected, 'UE' = detected uncorrectable,");
    println!("'SDC' = silent corruption (miscorrection).");
    println!();
    println!("Note how the weak-beat and whole-device rows separate Purley");
    println!("from the SDDC platforms: that asymmetry is Finding 2 of the");
    println!("paper, emerging here from real Reed-Solomon / SEC-DED decoding.");
}
