//! Text-based model checkpointing through the parameter visitor.
//!
//! Format (`CQNN1`): one header line, then for each parameter one metadata
//! line `name kind length` followed by one line of space-separated
//! lowercase-hex `f32::to_bits` words — an exact (bit-preserving) and
//! dependency-free round trip. BatchNorm running statistics are included
//! (they ride the visitor as [`ParamKind::RunningStat`]).

use crate::{Layer, ParamKind, ParamView};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Error, ErrorKind, Read, Result, Write};
use std::path::Path;

const MAGIC: &str = "CQNN1";

fn kind_tag(kind: ParamKind) -> &'static str {
    match kind {
        ParamKind::Weight => "weight",
        ParamKind::Bias => "bias",
        ParamKind::Gamma => "gamma",
        ParamKind::Beta => "beta",
        ParamKind::Scale => "scale",
        ParamKind::RunningStat => "stat",
    }
}

/// Serializes every parameter of `model` into the checkpoint format.
pub fn serialize_params(model: &mut dyn Layer) -> String {
    let mut out = String::from(MAGIC);
    out.push('\n');
    model.visit_params("", &mut |p: ParamView<'_>| {
        let _ = writeln!(out, "{} {} {}", p.name, kind_tag(p.kind), p.value.len());
        let mut line = String::with_capacity(p.value.len() * 9);
        for (i, v) in p.value.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{:08x}", v.to_bits());
        }
        out.push_str(&line);
        out.push('\n');
    });
    out
}

/// Restores parameters from checkpoint text produced by
/// [`serialize_params`]. Every parameter of the model must be present with
/// a matching length; extra entries in the checkpoint are rejected.
///
/// # Errors
///
/// Returns an error on format violations, name/length mismatches, or
/// missing/excess parameters.
pub fn deserialize_params(model: &mut dyn Layer, text: &str) -> Result<()> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(Error::new(ErrorKind::InvalidData, "bad checkpoint magic"));
    }
    let mut table: HashMap<String, (String, Vec<f32>)> = HashMap::new();
    while let Some(meta) = lines.next() {
        if meta.trim().is_empty() {
            continue;
        }
        let mut parts = meta.split_whitespace();
        let (name, kind, len) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(k), Some(l)) => (n, k, l),
            _ => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("bad meta line: {meta}"),
                ))
            }
        };
        let len: usize = len
            .parse()
            .map_err(|_| Error::new(ErrorKind::InvalidData, format!("bad length in: {meta}")))?;
        let data_line = lines.next().ok_or_else(|| {
            Error::new(ErrorKind::UnexpectedEof, format!("missing data for {name}"))
        })?;
        // Sized by the data actually present, never by the header's
        // `len`: a corrupt length must not drive an allocation.
        let values = data_line
            .split_whitespace()
            .map(|word| {
                u32::from_str_radix(word, 16)
                    .map(f32::from_bits)
                    .map_err(|_| {
                        Error::new(
                            ErrorKind::InvalidData,
                            format!("bad hex word '{word}' in {name}"),
                        )
                    })
            })
            .collect::<Result<Vec<f32>>>()?;
        if values.len() != len {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("{name}: expected {len} values, found {}", values.len()),
            ));
        }
        if table
            .insert(name.to_string(), (kind.to_string(), values))
            .is_some()
        {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("duplicate entry {name}"),
            ));
        }
    }

    let mut missing = Vec::new();
    let mut mismatched = Vec::new();
    let mut wrong_kind = Vec::new();
    model.visit_params("", &mut |p: ParamView<'_>| match table.remove(&p.name) {
        // The kind tag guards against restoring data into the wrong role
        // (e.g. quantizer scales loaded into a weight): such a checkpoint
        // would restore silently but change the model's behaviour.
        Some((kind, _)) if kind != kind_tag(p.kind) => wrong_kind.push(format!(
            "{} (model expects {}, checkpoint has {})",
            p.name,
            kind_tag(p.kind),
            kind
        )),
        Some((_, values)) if values.len() == p.value.len() => p.value.copy_from_slice(&values),
        Some((_, values)) => mismatched.push(format!(
            "{} (model {}, checkpoint {})",
            p.name,
            p.value.len(),
            values.len()
        )),
        None => missing.push(p.name.clone()),
    });
    if !missing.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("checkpoint missing parameters: {missing:?}"),
        ));
    }
    if !wrong_kind.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("parameter kind mismatches: {wrong_kind:?}"),
        ));
    }
    if !mismatched.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("length mismatches: {mismatched:?}"),
        ));
    }
    if !table.is_empty() {
        let extra: Vec<&String> = table.keys().collect();
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("checkpoint has unknown parameters: {extra:?}"),
        ));
    }
    Ok(())
}

/// Saves a model checkpoint to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<()> {
    let text = serialize_params(model);
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

/// Loads a model checkpoint from a file (see [`deserialize_params`] for
/// the matching rules).
///
/// # Errors
///
/// Propagates I/O errors and format violations.
pub fn load_params(model: &mut dyn Layer, path: impl AsRef<Path>) -> Result<()> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    deserialize_params(model, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpConvFactory, Mode, ResNet, ResNetSpec};
    use cq_tensor::CqRng;

    fn build(seed: u64) -> ResNet {
        let mut factory = FpConvFactory::new(seed);
        ResNet::build(ResNetSpec::resnet8(4, 4), &mut factory, seed + 1)
    }

    #[test]
    fn roundtrip_restores_outputs_exactly() {
        let mut a = build(1);
        // Give BN non-default running stats.
        let mut rng = CqRng::new(2);
        let x = rng.normal_tensor(&[4, 3, 12, 12], 1.0);
        let _ = a.forward(&x, Mode::Train);
        let ya = a.forward(&x, Mode::Eval);

        let text = serialize_params(&mut a);
        let mut b = build(999); // different init
        assert_ne!(b.forward(&x, Mode::Eval), ya);
        deserialize_params(&mut b, &text).unwrap();
        assert_eq!(b.forward(&x, Mode::Eval), ya, "bit-exact restore");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cq_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cqnn");
        let mut a = build(3);
        save_params(&mut a, &path).unwrap();
        let mut b = build(4);
        load_params(&mut b, &path).unwrap();
        let x = CqRng::new(5).normal_tensor(&[1, 3, 12, 12], 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = build(6);
        let text = serialize_params(&mut a);
        let mut factory = FpConvFactory::new(7);
        let mut wider = ResNet::build(ResNetSpec::resnet8(4, 8), &mut factory, 8);
        let err = deserialize_params(&mut wider, &text).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    /// A checkpoint whose `kind` tags disagree with the model's parameter
    /// roles (e.g. scale data under a weight entry) must be rejected, not
    /// restored silently.
    #[test]
    fn rejects_swapped_parameter_kinds() {
        let mut a = build(10);
        let text = serialize_params(&mut a);
        assert!(text.contains(" gamma "), "test needs a BatchNorm gamma");
        let tampered = text.replacen(" gamma ", " beta ", 1);
        let err = deserialize_params(&mut a, &tampered).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("kind mismatches"),
            "error should name the kind mismatch, got: {msg}"
        );
        // The untampered checkpoint still restores.
        deserialize_params(&mut a, &text).unwrap();
    }

    /// A header length far beyond the data — up to `usize::MAX` — must
    /// come back as the length-mismatch error, not as an allocation of
    /// that many values.
    #[test]
    fn rejects_huge_declared_lengths() {
        let mut a = build(11);
        for len in [1u64 << 40, usize::MAX as u64] {
            let text = format!("{MAGIC}\nx weight {len}\n00000000\n");
            let err = deserialize_params(&mut a, &text).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(err.to_string().contains("expected"), "len {len}: {err}");
        }
    }

    /// A checkpoint cut at any line boundary short of its end is refused.
    #[test]
    fn rejects_checkpoints_cut_at_every_line() {
        let mut a = build(12);
        let text = serialize_params(&mut a);
        let cuts = text.match_indices('\n').map(|(i, _)| i + 1);
        for cut in std::iter::once(0).chain(cuts).filter(|&c| c < text.len()) {
            assert!(
                deserialize_params(&mut a, &text[..cut]).is_err(),
                "checkpoint cut at byte {cut} was accepted"
            );
        }
        deserialize_params(&mut a, &text).unwrap();
    }

    #[test]
    fn rejects_corrupt_text() {
        let mut a = build(9);
        assert!(deserialize_params(&mut a, "GARBAGE\n").is_err());
        let mut text = serialize_params(&mut a);
        text.push_str("phantom.param weight 2\n00000000 00000000\n");
        assert!(
            deserialize_params(&mut a, &text).is_err(),
            "extra params rejected"
        );
    }
}
