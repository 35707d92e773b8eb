//! SAPK — the APK-analog outer container.
//!
//! A real APK is a ZIP; what the pipeline needs from it is (1) the binary
//! manifest, (2) the DEX blob(s), (3) opaque resources, and (4) a way to
//! fail loudly when the archive is damaged. SAPK provides exactly that: a
//! sectioned container with a fixed header, a section directory, and an
//! Adler-32 over the payload.
//!
//! ```text
//! +--------+---------+----------+---------+----------------------+---------+
//! | "SAPK" | version | checksum | n_sects | dir: (tag,off,len)*n | payload |
//! | 4 B    | u16 LE  | u32 LE   | u8      | 9 B each             | ...     |
//! +--------+---------+----------+---------+----------------------+---------+
//! ```
//!
//! Offsets in the directory are relative to the start of the payload area.

use crate::error::ApkError;
use crate::sdex::VerifyPreset;
use crate::wire::adler32;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes at the start of every SAPK container.
pub const SAPK_MAGIC: [u8; 4] = *b"SAPK";
/// Current SAPK format version.
pub const SAPK_VERSION: u16 = 1;

/// Kinds of section a SAPK container may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionTag {
    /// Serialized `wla-manifest` blob.
    Manifest,
    /// SDEX bytecode blob.
    Dex,
    /// Opaque resources (layouts, assets); the pipeline ignores the content
    /// but real corpora have them, so size accounting stays realistic.
    Resources,
}

impl SectionTag {
    fn to_byte(self) -> u8 {
        match self {
            SectionTag::Manifest => 1,
            SectionTag::Dex => 2,
            SectionTag::Resources => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ApkError> {
        Ok(match b {
            1 => SectionTag::Manifest,
            2 => SectionTag::Dex,
            3 => SectionTag::Resources,
            other => return Err(ApkError::BadSectionTag(other)),
        })
    }
}

/// One decoded section: tag plus owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SapkSection {
    /// Section kind.
    pub tag: SectionTag,
    /// Raw section bytes.
    pub data: Bytes,
}

/// A parsed SAPK container.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sapk {
    sections: Vec<SapkSection>,
}

impl Sapk {
    /// Empty container (builder start state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Sections keep insertion order; duplicate tags are
    /// allowed at this layer (multi-dex APKs exist), and accessors return
    /// the first match.
    pub fn push(&mut self, tag: SectionTag, data: impl Into<Bytes>) -> &mut Self {
        self.sections.push(SapkSection {
            tag,
            data: data.into(),
        });
        self
    }

    /// All sections in order.
    pub fn sections(&self) -> &[SapkSection] {
        &self.sections
    }

    /// First section with `tag`, if any.
    pub fn section(&self, tag: SectionTag) -> Option<&Bytes> {
        self.sections.iter().find(|s| s.tag == tag).map(|s| &s.data)
    }

    /// The manifest section, required for analysis.
    pub fn manifest_bytes(&self) -> Result<&Bytes, ApkError> {
        self.section(SectionTag::Manifest)
            .ok_or(ApkError::MissingSection("manifest"))
    }

    /// The dex section, required for analysis.
    pub fn dex_bytes(&self) -> Result<&Bytes, ApkError> {
        self.section(SectionTag::Dex)
            .ok_or(ApkError::MissingSection("dex"))
    }

    /// Serialize to the SAPK wire format.
    pub fn encode(&self) -> Bytes {
        assert!(
            self.sections.len() <= u8::MAX as usize,
            "SAPK supports at most 255 sections"
        );
        let mut payload = BytesMut::new();
        let mut dir = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            let off = payload.len() as u32;
            payload.put_slice(&s.data);
            dir.push((s.tag, off, s.data.len() as u32));
        }

        // Checksum covers the directory and the payload so a damaged
        // directory is also caught.
        let mut covered = BytesMut::new();
        covered.put_u8(self.sections.len() as u8);
        for &(tag, off, len) in &dir {
            covered.put_u8(tag.to_byte());
            covered.put_u32_le(off);
            covered.put_u32_le(len);
        }
        covered.put_slice(&payload);

        let mut out = BytesMut::with_capacity(covered.len() + 10);
        out.put_slice(&SAPK_MAGIC);
        out.put_u16_le(SAPK_VERSION);
        out.put_u32_le(adler32(&covered));
        out.put_slice(&covered);
        out.freeze()
    }

    /// Parse and validate a SAPK container from a borrowed slice.
    ///
    /// Sections are copied into fresh shared storage. Callers that already
    /// hold the container as [`Bytes`] — a shard window, an mmap view —
    /// should use [`Sapk::decode_bytes`], which slices sections out of the
    /// caller's buffer without copying.
    pub fn decode(raw: &[u8]) -> Result<Sapk, ApkError> {
        Sapk::decode_with_payload(raw, None, VerifyPreset::All)
    }

    /// Zero-copy [`Sapk::decode`]: sections are sub-views of `raw`, so the
    /// payload bytes are never copied. Validation is identical to
    /// [`Sapk::decode`] — the two are equivalence-pinned by proptest.
    pub fn decode_bytes(raw: Bytes) -> Result<Sapk, ApkError> {
        Sapk::decode_with_payload(&raw, Some(&raw), VerifyPreset::All)
    }

    /// Zero-copy decode under an explicit [`VerifyPreset`].
    ///
    /// Only [`VerifyPreset::None`] changes behaviour here — it skips the
    /// Adler-32 compare over the directory + payload. Section-directory
    /// bounds checks always run: section views are sliced out of the
    /// buffer, so a bad directory must fail structurally rather than
    /// panic, whatever the trust level.
    pub fn decode_bytes_with(raw: Bytes, preset: VerifyPreset) -> Result<Sapk, ApkError> {
        Sapk::decode_with_payload(&raw, Some(&raw), preset)
    }

    /// Shared decode body: parse `raw`, building sections either by
    /// copying out of the cursor (`shared == None`) or by slicing the
    /// shared buffer `raw` is a view of.
    fn decode_with_payload(
        raw: &[u8],
        shared: Option<&Bytes>,
        preset: VerifyPreset,
    ) -> Result<Sapk, ApkError> {
        let mut buf = raw;
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SAPK_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SAPK",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SAPK_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        if preset.verifies() {
            let computed = adler32(buf);
            if stored != computed {
                return Err(ApkError::ChecksumMismatch { stored, computed });
            }
        }

        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "section count",
            });
        }
        let n = buf.get_u8() as usize;
        if buf.remaining() < n * 9 {
            return Err(ApkError::Truncated {
                context: "section directory",
            });
        }
        let mut dir = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = SectionTag::from_byte(buf.get_u8())?;
            let off = buf.get_u32_le();
            let len = buf.get_u32_le();
            dir.push((tag, off, len));
        }
        let payload = match shared {
            // `buf` is a suffix of `raw`, which is a view of the shared
            // buffer starting at the same address — the payload is the
            // trailing `buf.len()` bytes of that view.
            Some(bytes) => bytes.slice(bytes.len() - buf.len()..),
            None => Bytes::copy_from_slice(buf),
        };
        let total = payload.len() as u32;
        let mut sections = Vec::with_capacity(n);
        for (tag, off, len) in dir {
            let end = off.checked_add(len).ok_or(ApkError::SectionOutOfBounds {
                offset: off,
                len,
                total,
            })?;
            if end > total {
                return Err(ApkError::SectionOutOfBounds {
                    offset: off,
                    len,
                    total,
                });
            }
            sections.push(SapkSection {
                tag,
                data: payload.slice(off as usize..end as usize),
            });
        }
        Ok(Sapk { sections })
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        10 + 1 + self.sections.len() * 9 + self.sections.iter().map(|s| s.data.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sapk {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Manifest, &b"manifest-bytes"[..]);
        apk.push(SectionTag::Dex, &b"dex-bytes-here"[..]);
        apk.push(SectionTag::Resources, vec![0u8; 64]);
        apk
    }

    #[test]
    fn roundtrip() {
        let apk = sample();
        let bytes = apk.encode();
        assert_eq!(bytes.len(), apk.encoded_len());
        let back = Sapk::decode(&bytes).unwrap();
        assert_eq!(apk, back);
    }

    #[test]
    fn accessors() {
        let apk = sample();
        assert_eq!(&apk.manifest_bytes().unwrap()[..], b"manifest-bytes");
        assert_eq!(&apk.dex_bytes().unwrap()[..], b"dex-bytes-here");
    }

    #[test]
    fn missing_sections_reported() {
        let apk = Sapk::new();
        assert_eq!(
            apk.manifest_bytes().unwrap_err(),
            ApkError::MissingSection("manifest")
        );
        assert_eq!(
            apk.dex_bytes().unwrap_err(),
            ApkError::MissingSection("dex")
        );
    }

    #[test]
    fn empty_container_roundtrips() {
        let apk = Sapk::new();
        let back = Sapk::decode(&apk.encode()).unwrap();
        assert!(back.sections().is_empty());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Sapk::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn bitflip_rejected_everywhere() {
        let bytes = sample().encode().to_vec();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Sapk::decode(&bad).is_err(),
                "decode accepted a bit flip at byte {i}"
            );
        }
    }

    #[test]
    fn out_of_bounds_section_rejected() {
        // Forge a directory pointing past the payload, with a valid checksum.
        let mut covered = Vec::new();
        covered.push(1u8); // one section
        covered.push(2u8); // Dex
        covered.extend_from_slice(&0u32.to_le_bytes()); // off
        covered.extend_from_slice(&100u32.to_le_bytes()); // len > payload
        covered.extend_from_slice(b"tiny");
        let mut raw = Vec::new();
        raw.extend_from_slice(&SAPK_MAGIC);
        raw.extend_from_slice(&SAPK_VERSION.to_le_bytes());
        raw.extend_from_slice(&adler32(&covered).to_le_bytes());
        raw.extend_from_slice(&covered);
        assert!(matches!(
            Sapk::decode(&raw),
            Err(ApkError::SectionOutOfBounds { .. })
        ));
    }

    #[test]
    fn decode_bytes_matches_decode_and_is_zero_copy() {
        let apk = sample();
        let blob = apk.encode();
        let owned = Sapk::decode(&blob).unwrap();
        let shared = Sapk::decode_bytes(blob.clone()).unwrap();
        assert_eq!(owned, shared);
        // Zero-copy: each decoded section aliases the original buffer.
        let base = blob.as_ref().as_ptr() as usize;
        let end = base + blob.len();
        for s in shared.sections() {
            if s.data.is_empty() {
                continue;
            }
            let p = s.data.as_ref().as_ptr() as usize;
            assert!(p >= base && p + s.data.len() <= end, "section copied");
        }
    }

    #[test]
    fn decode_bytes_rejects_what_decode_rejects() {
        let blob = sample().encode().to_vec();
        for cut in 0..blob.len() {
            let a = Sapk::decode(&blob[..cut]).unwrap_err();
            let b = Sapk::decode_bytes(Bytes::copy_from_slice(&blob[..cut])).unwrap_err();
            assert_eq!(a, b, "divergence at prefix {cut}");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            let a = Sapk::decode(&bad).unwrap_err();
            let b = Sapk::decode_bytes(Bytes::from(bad)).unwrap_err();
            assert_eq!(a, b, "divergence at flipped byte {i}");
        }
    }

    #[test]
    fn multidex_first_wins() {
        let mut apk = Sapk::new();
        apk.push(SectionTag::Dex, &b"first"[..]);
        apk.push(SectionTag::Dex, &b"second"[..]);
        let back = Sapk::decode(&apk.encode()).unwrap();
        assert_eq!(&back.dex_bytes().unwrap()[..], b"first");
        assert_eq!(back.sections().len(), 2);
    }
}
