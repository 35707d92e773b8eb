//! Controlled damage for SAPK containers.
//!
//! Of the 146.8K APKs the paper downloaded, 242 were "discovered to be
//! broken" and could not be analyzed (Table 2). The corpus generator uses
//! this module to break the same fraction of containers *at the byte
//! level*, so the pipeline's error handling — not a boolean flag — produces
//! that row of the table.

use crate::container::{Sapk, SectionTag};
use crate::sdex::{self, Dex, Instruction, Reg};

/// The ways a container can be damaged in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Cut the file off after `keep_fraction` of its bytes (interrupted
    /// download / bad repackaging).
    Truncate {
        /// Numerator of the kept fraction, out of 256.
        keep_num: u8,
    },
    /// Flip one bit somewhere in the body (bit rot / bad transfer).
    BitFlip {
        /// Byte position as a fraction of the file, out of 256.
        pos_num: u8,
    },
    /// Overwrite the magic (file is not an APK at all).
    ClobberMagic,
    /// Overwrite one body byte with `0xF5` *and re-stamp the checksum*, so
    /// the damage slips past the adler gate and reaches the validators
    /// behind it (`0xF5` can never appear in UTF-8, so a hit inside a
    /// string pool becomes `BadUtf8`; elsewhere it lands on varint or
    /// index checks). Works on any SAPK/SDEX-framed blob — both share the
    /// 10-byte `magic + version + adler32` header. Unlike the other kinds
    /// this does not always break *container* decoding: SAPK treats
    /// section payloads as opaque bytes, so the error may only surface
    /// when the inner SDEX blob is decoded — or not at all, if the stamp
    /// lands in an opaque resource blob.
    ClobberRechecksum {
        /// Body byte position as a fraction of the body, out of 256.
        pos_num: u8,
    },
    /// Re-encode the container with one instruction's register operand
    /// pushed past its method's declared register count (checksums restamped
    /// by re-encoding), so the damage sails through the adler gate, the
    /// string/type/method index checks, and lands exactly on the register
    /// bounds validator. Like [`ClobberRechecksum`](Self::ClobberRechecksum)
    /// this leaves *container* decoding intact on SAPK input — the error
    /// surfaces when the inner SDEX blob is decoded. Falls back to
    /// [`BitFlip`](Self::BitFlip) (which the checksum gate always catches)
    /// when the input has no decodable register operand to damage, so the
    /// kind is guaranteed to break *some* layer.
    ClobberRegister {
        /// Which register slot to hit, modulo the number of slots.
        site_num: u8,
    },
    /// Overwrite one non-empty slot of the SDEX **type lookup table** (the
    /// v3 section) with an out-of-range type index and re-encode (checksum
    /// restamped), so the damage sails through the adler gate and lands on
    /// the table validators that only `VerifyPreset::All` runs — pinning
    /// that full verification rejects a damaged table while trusted
    /// presets, which are never handed corrupted bytes by contract, would
    /// carry it silently. Like
    /// [`ClobberRegister`](Self::ClobberRegister) this leaves *container*
    /// decoding intact on SAPK input, and falls back to
    /// [`BitFlip`](Self::BitFlip) when the input has no non-empty lookup
    /// table to damage.
    ClobberLookupTable {
        /// Which non-empty slot to hit, modulo the non-empty count.
        slot_num: u8,
    },
}

/// Byte length of the shared `magic + version + adler32` header.
const HEADER_LEN: usize = 10;

/// Apply `kind` to `bytes`, returning the damaged container.
///
/// The damage is deterministic given `kind`, so corpora are reproducible.
pub fn corrupt(bytes: &[u8], kind: CorruptionKind) -> Vec<u8> {
    match kind {
        CorruptionKind::Truncate { keep_num } => {
            // Keep at least the magic so the failure is a truncation error,
            // not a magic error — mirrors real half-downloaded files.
            let keep = ((bytes.len() as u64 * keep_num as u64) / 256) as usize;
            let keep = keep.clamp(4.min(bytes.len()), bytes.len().saturating_sub(1));
            bytes[..keep].to_vec()
        }
        CorruptionKind::BitFlip { pos_num } => {
            let mut out = bytes.to_vec();
            if !out.is_empty() {
                // Flip within the checksummed region (skip the 10-byte header
                // when possible) so the checksum is what catches it.
                let lo = 10.min(out.len() - 1);
                let span = out.len() - lo;
                let pos = lo + ((span as u64 * pos_num as u64) / 256) as usize;
                let pos = pos.min(out.len() - 1);
                out[pos] ^= 0x10;
            }
            out
        }
        CorruptionKind::ClobberMagic => {
            let mut out = bytes.to_vec();
            for (i, b) in out.iter_mut().take(4).enumerate() {
                *b = b"GARB"[i];
            }
            out
        }
        CorruptionKind::ClobberRechecksum { pos_num } => {
            let mut out = bytes.to_vec();
            if out.len() > HEADER_LEN {
                let body = out.len() - HEADER_LEN;
                let pos = HEADER_LEN + ((body as u64 * pos_num as u64) / 256) as usize;
                let pos = pos.min(out.len() - 1);
                out[pos] = 0xF5;
                let sum = crate::wire::adler32(&out[HEADER_LEN..]);
                out[6..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
            }
            out
        }
        CorruptionKind::ClobberRegister { site_num } => match clobber_register(bytes, site_num) {
            Some(out) => out,
            // No decodable register operand anywhere (corrupt input, empty
            // code, …): degrade to a bit flip, which the checksum gate is
            // guaranteed to catch.
            None => corrupt(bytes, CorruptionKind::BitFlip { pos_num: site_num }),
        },
        CorruptionKind::ClobberLookupTable { slot_num } => match clobber_lut(bytes, slot_num) {
            Some(out) => out,
            // No non-empty lookup table anywhere (lut-less blob, typeless
            // dex, corrupt input): degrade to a checksum-caught bit flip.
            None => corrupt(bytes, CorruptionKind::BitFlip { pos_num: slot_num }),
        },
    }
}

/// Decode `bytes` (bare SDEX, or SAPK with dex sections), overwrite the
/// `site_num`-th register operand (mod the slot count) with an out-of-range
/// register, and re-encode. Returns `None` when there is nothing to damage.
fn clobber_register(bytes: &[u8], site_num: u8) -> Option<Vec<u8>> {
    if bytes.get(..4) == Some(&sdex::SDEX_MAGIC[..]) {
        let mut dex = Dex::decode(bytes).ok()?;
        clobber_register_in_dex(&mut dex, site_num)?;
        return Some(dex.encode().to_vec());
    }
    let apk = Sapk::decode(bytes).ok()?;
    let mut rebuilt = Sapk::new();
    let mut done = false;
    for s in apk.sections() {
        if !done && s.tag == SectionTag::Dex {
            if let Ok(mut dex) = Dex::decode_bytes(s.data.clone()) {
                if clobber_register_in_dex(&mut dex, site_num).is_some() {
                    rebuilt.push(SectionTag::Dex, dex.encode());
                    done = true;
                    continue;
                }
            }
        }
        rebuilt.push(s.tag, s.data.clone());
    }
    done.then(|| rebuilt.encode().to_vec())
}

/// Decode `bytes` (bare SDEX, or SAPK with dex sections), overwrite one
/// non-empty lookup-table slot with an out-of-range type index, and
/// re-encode. Returns `None` when there is no table to damage.
fn clobber_lut(bytes: &[u8], slot_num: u8) -> Option<Vec<u8>> {
    if bytes.get(..4) == Some(&sdex::SDEX_MAGIC[..]) {
        let mut dex = Dex::decode(bytes).ok()?;
        clobber_lut_in_dex(&mut dex, slot_num)?;
        return Some(dex.encode().to_vec());
    }
    let apk = Sapk::decode(bytes).ok()?;
    let mut rebuilt = Sapk::new();
    let mut done = false;
    for s in apk.sections() {
        if !done && s.tag == SectionTag::Dex {
            if let Ok(mut dex) = Dex::decode_bytes(s.data.clone()) {
                if clobber_lut_in_dex(&mut dex, slot_num).is_some() {
                    rebuilt.push(SectionTag::Dex, dex.encode());
                    done = true;
                    continue;
                }
            }
        }
        rebuilt.push(s.tag, s.data.clone());
    }
    done.then(|| rebuilt.encode().to_vec())
}

fn clobber_lut_in_dex(dex: &mut Dex, slot_num: u8) -> Option<()> {
    let type_count = dex.type_count() as u32;
    let slots = dex.lut_slots_mut()?;
    let occupied: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .map(|(i, _)| i)
        .collect();
    if occupied.is_empty() {
        return None;
    }
    let i = occupied[slot_num as usize % occupied.len()];
    // Strictly past the type table, so full verification flags the slot as
    // index-out-of-range before even comparing the canonical rebuild.
    slots[i] = type_count + 1 + slot_num as u32;
    Some(())
}

/// Number of register operands an instruction carries.
fn register_slot_count(ins: &Instruction) -> usize {
    match ins {
        Instruction::Invoke { args, .. } => args.len(),
        Instruction::ConstString { .. } => 1,
        Instruction::Move { .. } => 2,
        _ => 0,
    }
}

/// Mutable views of an instruction's register operands, in a fixed order.
fn register_slots(ins: &mut Instruction) -> Vec<&mut Reg> {
    match ins {
        Instruction::Invoke { args, .. } => args.iter_mut().collect(),
        Instruction::ConstString { dst, .. } => vec![dst],
        Instruction::Move { dst, src } => vec![dst, src],
        _ => vec![],
    }
}

fn clobber_register_in_dex(dex: &mut Dex, site_num: u8) -> Option<()> {
    let total: usize = dex
        .classes()
        .iter()
        .flat_map(|c| &c.methods)
        .flat_map(|m| &m.code)
        .map(register_slot_count)
        .sum();
    if total == 0 {
        return None;
    }
    let target = site_num as usize % total;
    let mut i = 0usize;
    for c in dex.classes_mut() {
        for m in &mut c.methods {
            // Strictly past the declared count, clamped into `Reg`'s width.
            let bad = (m.registers as u64 + 1 + site_num as u64).min(u16::MAX as u64) as u16;
            for ins in &mut m.code {
                for r in register_slots(ins) {
                    if i == target {
                        *r = Reg(bad);
                        return Some(());
                    }
                    i += 1;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Sapk, SectionTag};

    fn sample_bytes() -> Vec<u8> {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Manifest, vec![7u8; 100]);
        apk.push(SectionTag::Dex, vec![9u8; 400]);
        apk.encode().to_vec()
    }

    #[test]
    fn every_kind_breaks_decoding() {
        let good = sample_bytes();
        assert!(Sapk::decode(&good).is_ok());
        let kinds = [
            CorruptionKind::Truncate { keep_num: 128 },
            CorruptionKind::Truncate { keep_num: 10 },
            CorruptionKind::BitFlip { pos_num: 0 },
            CorruptionKind::BitFlip { pos_num: 200 },
            CorruptionKind::ClobberMagic,
        ];
        for kind in kinds {
            let bad = corrupt(&good, kind);
            assert!(
                Sapk::decode(&bad).is_err(),
                "corruption {kind:?} still decoded"
            );
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let good = sample_bytes();
        let kind = CorruptionKind::BitFlip { pos_num: 77 };
        assert_eq!(corrupt(&good, kind), corrupt(&good, kind));
    }

    #[test]
    fn rechecksum_reaches_past_the_checksum_gate() {
        // The rewritten checksum must be accepted; whatever fails after
        // that is one of the inner validators, never the adler gate.
        let mut b = crate::DexBuilder::new();
        b.define_class(
            "com/example/Main",
            Some("android/app/Activity"),
            crate::ClassFlags::default(),
            vec![],
        )
        .unwrap();
        let blob = b.build().encode().to_vec();
        for pos_num in [0u8, 64, 128, 200, 255] {
            let bad = corrupt(&blob, CorruptionKind::ClobberRechecksum { pos_num });
            if let Err(e) = crate::Dex::decode(&bad) {
                assert_ne!(e.kind(), "checksum-mismatch", "pos_num={pos_num}");
                assert_ne!(e.kind(), "bad-magic", "pos_num={pos_num}");
            }
        }
        // At least one position lands inside string bytes, where 0xF5 is
        // invalid UTF-8.
        let hits_pool = (0..=255u8).any(|pos_num| {
            matches!(
                crate::Dex::decode(&corrupt(&blob, CorruptionKind::ClobberRechecksum { pos_num })),
                Err(e) if e.kind() == "bad-utf8"
            )
        });
        assert!(hits_pool);
    }

    fn dex_with_registers() -> crate::Dex {
        let mut b = crate::DexBuilder::new();
        let load = b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://cdn.example/x");
        let m = b.intern_method("com/example/Main", "go", "()V");
        b.define_class(
            "com/example/Main",
            Some("android/app/Activity"),
            crate::ClassFlags::default(),
            vec![crate::MethodDef::new(
                m,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::Move {
                        dst: Reg(1),
                        src: Reg(0),
                    },
                    Instruction::Invoke {
                        kind: crate::InvokeKind::Virtual,
                        method: load,
                        args: vec![Reg(1)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn clobber_register_reaches_the_register_validator() {
        let blob = dex_with_registers().encode().to_vec();
        // Every slot choice produces a blob the adler gate accepts and the
        // register bounds check rejects.
        for site_num in [0u8, 1, 2, 3, 4, 77, 255] {
            let bad = corrupt(&blob, CorruptionKind::ClobberRegister { site_num });
            let err = crate::Dex::decode(&bad).expect_err("clobbered register decoded");
            assert_eq!(err.kind(), "index-out-of-range", "site_num={site_num}");
            assert!(
                format!("{err:?}").contains("register"),
                "site_num={site_num}"
            );
        }
    }

    #[test]
    fn clobber_register_is_transparent_to_the_container() {
        // On SAPK input the outer container stays valid; the damage only
        // surfaces when the inner SDEX section is decoded.
        let mut apk = Sapk::new();
        apk.push(SectionTag::Manifest, vec![7u8; 32]);
        apk.push(SectionTag::Dex, dex_with_registers().encode());
        let bad = corrupt(
            &apk.encode(),
            CorruptionKind::ClobberRegister { site_num: 3 },
        );
        let back = Sapk::decode(&bad).expect("container decode must survive");
        let err = crate::Dex::decode(back.dex_bytes().unwrap()).unwrap_err();
        assert_eq!(err.kind(), "index-out-of-range");
    }

    #[test]
    fn clobber_register_deterministic_and_falls_back() {
        let blob = dex_with_registers().encode().to_vec();
        let kind = CorruptionKind::ClobberRegister { site_num: 9 };
        assert_eq!(corrupt(&blob, kind), corrupt(&blob, kind));
        // No register slots anywhere: degrade to a checksum-caught bit flip.
        let mut b = crate::DexBuilder::new();
        b.define_class("com/x/Empty", None, crate::ClassFlags::default(), vec![])
            .unwrap();
        let empty = b.build().encode().to_vec();
        let fallback = corrupt(&empty, kind);
        assert_eq!(
            fallback,
            corrupt(&empty, CorruptionKind::BitFlip { pos_num: 9 })
        );
        assert!(crate::Dex::decode(&fallback).is_err());
    }

    #[test]
    fn clobber_lookup_table_reaches_the_lut_validator() {
        let blob = dex_with_registers().encode().to_vec();
        // Every slot choice produces a blob the adler gate accepts and the
        // lookup-table validation (only run at `VerifyPreset::All`) rejects.
        for slot_num in [0u8, 1, 2, 3, 4, 77, 255] {
            let bad = corrupt(&blob, CorruptionKind::ClobberLookupTable { slot_num });
            let err = crate::Dex::decode(&bad).expect_err("clobbered lookup table decoded");
            assert_eq!(err.kind(), "index-out-of-range", "slot_num={slot_num}");
            assert!(format!("{err:?}").contains("type"), "slot_num={slot_num}");
        }
    }

    #[test]
    fn clobber_lookup_table_transparent_to_container() {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Manifest, vec![7u8; 32]);
        apk.push(SectionTag::Dex, dex_with_registers().encode());
        let bad = corrupt(
            &apk.encode(),
            CorruptionKind::ClobberLookupTable { slot_num: 2 },
        );
        let back = Sapk::decode(&bad).expect("container decode must survive");
        let err = crate::Dex::decode(back.dex_bytes().unwrap()).unwrap_err();
        assert_eq!(err.kind(), "index-out-of-range");
    }

    #[test]
    fn clobber_lookup_table_deterministic_and_falls_back() {
        let blob = dex_with_registers().encode().to_vec();
        let kind = CorruptionKind::ClobberLookupTable { slot_num: 5 };
        assert_eq!(corrupt(&blob, kind), corrupt(&blob, kind));
        // Nothing decodable: degrade to a checksum-caught bit flip.
        let garbage = vec![0x42u8; 64];
        assert_eq!(
            corrupt(&garbage, kind),
            corrupt(&garbage, CorruptionKind::BitFlip { pos_num: 5 })
        );
    }

    #[test]
    fn damaged_lut_under_trusted_preset_never_panics() {
        use crate::sdex::VerifyPreset;
        // Trusted presets are never *supposed* to see a damaged table, but
        // if one slips through, probing must degrade to a miss — not panic
        // or spin.
        let bad = corrupt(
            &dex_with_registers().encode(),
            CorruptionKind::ClobberLookupTable { slot_num: 1 },
        );
        let dex = crate::Dex::decode_bytes_with(bytes::Bytes::from(bad), VerifyPreset::None)
            .expect("trusted decode skips lut verification");
        let _ = dex.type_by_name("com/example/Main");
        let _ = dex.type_by_name("definitely/not/There");
    }

    #[test]
    fn truncate_keeps_magic() {
        let good = sample_bytes();
        let bad = corrupt(&good, CorruptionKind::Truncate { keep_num: 2 });
        assert!(bad.len() >= 4);
        assert_eq!(&bad[..4], b"SAPK");
        assert!(bad.len() < good.len());
    }
}
