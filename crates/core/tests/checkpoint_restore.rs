//! A corrupt checkpoint must be refused by `PreparedCimModel::restore`
//! with an `Err`, never with a panic: values no frozen engine can run on
//! (non-finite values, non-positive quantizer scales, negative BatchNorm
//! variances) are rejected by `load_cim_checkpoint`, and a seeded
//! byte-mutation property test checks that no single changed byte gets
//! past both the parser and that check into a panicking freeze.

use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, save_cim_checkpoint, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode, ResNetSpec};
use cq_tensor::CqRng;
use std::path::PathBuf;

fn net(seed: u64) -> Box<dyn Layer> {
    Box::new(build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::ours(),
        seed,
    ))
}

/// Saves a ResNet-8 whose scales one eval forward has initialized and
/// returns the checkpoint path (in a directory of its own per test) and
/// its text.
fn saved_checkpoint(dir: &str, seed: u64) -> (PathBuf, String) {
    let mut model = net(seed);
    let x = CqRng::new(seed + 100).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = model.forward(&x, Mode::Eval);
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.cqnn");
    save_cim_checkpoint(model.as_mut(), &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    (path, text)
}

/// `text` with the first value of the first entry whose name ends in
/// `suffix` replaced by `f(old bits)`.
fn patch_first_value(text: &str, suffix: &str, f: impl Fn(u32) -> u32) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let meta = lines
        .iter()
        .position(|l| l.split(' ').next().is_some_and(|n| n.ends_with(suffix)))
        .unwrap_or_else(|| panic!("no {suffix} entry"));
    let data = &mut lines[meta + 1];
    let old = u32::from_str_radix(&data[..8], 16).unwrap();
    data.replace_range(..8, &format!("{:08x}", f(old)));
    lines.join("\n") + "\n"
}

/// A negative psum, activation or weight scale, a negative BatchNorm
/// running variance, or a NaN weight, in an otherwise well-formed
/// checkpoint is refused with `InvalidData`.
#[test]
fn restore_rejects_out_of_domain_values() {
    let (path, text) = saved_checkpoint("cq_restore_domain", 15);
    let sign = |bits: u32| bits ^ 0x8000_0000;
    let nan = |_| f32::NAN.to_bits();
    for (suffix, f) in [
        ("p_scale", &sign as &dyn Fn(u32) -> u32),
        ("a_scale", &sign),
        ("w_scale", &sign),
        ("running_var", &sign),
        ("weight", &nan),
    ] {
        std::fs::write(&path, patch_first_value(&text, suffix, f)).unwrap();
        let err = PreparedCimModel::restore(net(999), &path)
            .err()
            .unwrap_or_else(|| panic!("corrupt {suffix} restored"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{suffix}");
    }
    std::fs::remove_file(&path).ok();
}

/// Property: a saved checkpoint with any single byte changed restores
/// `Ok` or fails with `Err`; `restore` never panics. Half the trials
/// change a byte of a quantizer-scale data line, where a new hex digit
/// can turn a scale negative, infinite or NaN; a hex digit is always
/// replaced by another one so the text still parses and the change
/// reaches the value checks.
#[test]
fn restore_never_panics_on_mutated_bytes() {
    let (path, text) = saved_checkpoint("cq_restore_mutated", 16);
    // Byte offsets of every scale data line.
    let mut scale_bytes = Vec::new();
    let mut offset = 0;
    let mut after_scale_meta = false;
    for line in text.split_inclusive('\n') {
        if after_scale_meta {
            scale_bytes.extend(offset..offset + line.len() - 1);
        }
        after_scale_meta = line.split(' ').nth(1) == Some("scale");
        offset += line.len();
    }
    let hex = b"0123456789abcdef";
    let mut rng = CqRng::new(0xC0FFEE);
    let mut rejected = 0;
    for trial in 0..400 {
        let mut bad = text.clone().into_bytes();
        let at = if trial % 2 == 0 {
            scale_bytes[rng.below(scale_bytes.len())]
        } else {
            rng.below(bad.len())
        };
        let old = bad[at];
        bad[at] = if old.is_ascii_hexdigit() {
            let others: Vec<u8> = hex.iter().copied().filter(|&h| h != old).collect();
            others[rng.below(others.len())]
        } else {
            old ^ (1 + rng.below(255)) as u8
        };
        std::fs::write(&path, &bad).unwrap();
        let restored =
            std::panic::catch_unwind(|| PreparedCimModel::restore(net(999), &path).is_ok());
        match restored {
            Ok(ok) => rejected += usize::from(!ok),
            Err(_) => panic!(
                "restore panicked on byte {at}: {old:#04x} -> {:#04x}",
                bad[at]
            ),
        }
    }
    assert!(rejected > 0, "no mutation was rejected");
    std::fs::remove_file(&path).ok();
}
