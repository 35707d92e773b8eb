//! SDEX — the DEX-analog bytecode container.
//!
//! Mirrors the parts of real DEX that the paper's pipeline consumes:
//!
//! * a deduplicated **string pool** (class names, method names, descriptors,
//!   string literals such as URLs);
//! * a **type table** listing every class *referenced* by the file — both
//!   classes defined in this package and framework classes such as
//!   `android/webkit/WebView`;
//! * a **method table** of `(class, name, descriptor)` references;
//! * **class definitions** for the defined subset, each with a superclass
//!   link, flags, and encoded methods whose code is a small instruction set
//!   sufficient for call-graph construction (`invoke-*`, `const-string`,
//!   `new-instance`, branches, returns).
//!
//! [`DexBuilder`] writes files; [`Dex::decode`] parses and *validates* them
//! (index bounds, superclass acyclicity, checksum). The decoder must accept
//! exactly the encoder's output and reject everything [`crate::corrupt`]
//! produces.
//!
//! Decoding is **zero-copy**: the string pool is kept as `(offset, len)`
//! spans into the backing [`Bytes`] blob, validated (UTF-8 and bounds) in
//! the same linear pass that parses the tables, so no per-entry `String` is
//! ever allocated. [`Dex::decode_bytes`] shares the caller's buffer via the
//! `Bytes` refcount — handing it an SAPK section decodes a whole dex with a
//! single table-sized allocation per table. The pre-zero-copy owning
//! decoder survives as [`oracle`], and property tests pin the two together
//! byte-for-byte on valid and corrupted input alike.

use crate::error::ApkError;
use crate::wire::{
    adler32, get_string_span, get_string_span_unchecked, get_uvarint, put_string, put_uvarint,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Magic bytes at the start of every SDEX blob.
pub const SDEX_MAGIC: [u8; 4] = *b"SDEX";
/// The SDEX format version — the only one the encoder emits and the only
/// one the decoders accept; any other version fails fast with
/// [`ApkError::UnsupportedVersion`]. Data-bearing instructions carry
/// virtual-register operands (`const-string vA`, `move vA vB`, explicit
/// invoke argument lists), every method records its register count, and
/// an optional **type lookup table** section follows the class table — a
/// precomputed open-addressing hash over type names (modelled on ART's
/// `TypeLookupTable`) that makes [`Dex::type_by_name`] an O(1) probe
/// instead of a linear scan.
pub const SDEX_VERSION: u16 = 3;

/// How much validation the SDEX decoders perform, mirroring dexrs's
/// `VerifyPreset`.
///
/// * [`All`](VerifyPreset::All) — everything the format defines: header
///   magic/version, Adler-32 body checksum, per-string UTF-8, index bounds
///   on every table reference and instruction operand, superclass
///   acyclicity, and lookup-table canonicality. This is the default and the
///   only preset that is sound on bytes an adversary (or bit rot) may have
///   touched; every corruption test runs under it.
/// * [`None`](VerifyPreset::None) — header only; the checksum and the
///   structural validation are skipped. Sound only for generator-produced
///   bytes that never left the process boundary, or shard entries whose
///   enclosing WSHD checksum was verified by the container layer this
///   read.
///
/// Soundness note: [`Dex::string`] slices the pool with
/// `from_utf8_unchecked`, justified under `All` because every span is
/// recorded after a successful UTF-8 scan. The trusted presets skip that
/// scan (spans stay bounds-checked, so no out-of-bounds read is possible),
/// which is exactly why they must never be handed untrusted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyPreset {
    /// Full validation — the corruption-facing default.
    #[default]
    All,
    /// Header only; checksum and structural validation skipped.
    None,
}

impl VerifyPreset {
    /// Whether the decoder verifies the blob: the Adler-32 body checksum
    /// against the header, then per-entry structure (UTF-8, index bounds,
    /// instruction operands, hierarchy acyclicity, lookup-table rebuild).
    pub fn verifies(self) -> bool {
        matches!(self, VerifyPreset::All)
    }
}

/// Index into the type table of a [`Dex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Index into the method table of a [`Dex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index of a virtual register inside one method body. Valid registers are
/// `0..MethodDef::registers`; the decoder bounds-checks every operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// A `(class, name, descriptor)` method reference — the SDEX analog of a
/// DEX `method_id_item`. Refers to internal or framework methods alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodRef {
    /// Type that declares (or receives) the call.
    pub class: TypeId,
    /// String-pool index of the method name.
    pub name: u32,
    /// String-pool index of the descriptor, e.g. `(Ljava/lang/String;)V`.
    pub descriptor: u32,
}

/// Class-level flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassFlags {
    /// Declared `public`.
    pub public: bool,
    /// Is an interface rather than a class.
    pub interface: bool,
    /// Declared `abstract`.
    pub abstract_: bool,
}

impl ClassFlags {
    fn to_bits(self) -> u64 {
        (self.public as u64) | (self.interface as u64) << 1 | (self.abstract_ as u64) << 2
    }

    fn from_bits(bits: u64) -> Self {
        ClassFlags {
            public: bits & 1 != 0,
            interface: bits & 2 != 0,
            abstract_: bits & 4 != 0,
        }
    }
}

/// How an `invoke` instruction dispatches, mirroring DEX invoke kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvokeKind {
    /// `invoke-virtual` — dispatch through the receiver's class hierarchy.
    Virtual,
    /// `invoke-static`.
    Static,
    /// `invoke-direct` — constructors and private methods.
    Direct,
    /// `invoke-interface`.
    Interface,
    /// `invoke-super`.
    Super,
}

impl InvokeKind {
    fn to_byte(self) -> u8 {
        match self {
            InvokeKind::Virtual => 0,
            InvokeKind::Static => 1,
            InvokeKind::Direct => 2,
            InvokeKind::Interface => 3,
            InvokeKind::Super => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ApkError> {
        Ok(match b {
            0 => InvokeKind::Virtual,
            1 => InvokeKind::Static,
            2 => InvokeKind::Direct,
            3 => InvokeKind::Interface,
            4 => InvokeKind::Super,
            other => return Err(ApkError::BadOpcode(0x10 | other)),
        })
    }
}

/// One SDEX instruction. The set is intentionally small: exactly what the
/// call-graph builder (invokes), decompiler (all of it), and the
/// constant-propagation pass that recovers string arguments need. The
/// data-bearing instructions carry register operands, so URL recovery is
/// def-use tracking rather than an adjacency accident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// Call the referenced method, passing the listed argument registers.
    Invoke {
        /// Dispatch kind.
        kind: InvokeKind,
        /// Callee reference.
        method: MethodId,
        /// Argument registers; for web-call methods the URL (or data)
        /// argument is `args[0]`.
        args: Vec<Reg>,
    },
    /// Load a string-pool constant (e.g. a URL later passed to `loadUrl`)
    /// into a register.
    ConstString {
        /// Destination register.
        dst: Reg,
        /// String-pool index.
        string: u32,
    },
    /// Copy one register into another.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Allocate an instance of a type (e.g. `new CustomTabsIntent.Builder`).
    NewInstance {
        /// Type allocated.
        ty: TypeId,
    },
    /// Conditional branch by a signed instruction offset.
    IfTest {
        /// Relative target, in instructions.
        offset: i32,
    },
    /// Unconditional branch by a signed instruction offset.
    Goto {
        /// Relative target, in instructions.
        offset: i32,
    },
    /// Return from a `void` method.
    ReturnVoid,
    /// No operation (padding the generator uses to vary method sizes).
    Nop,
}

const OP_INVOKE: u8 = 0x01;
const OP_CONST_STRING: u8 = 0x02;
const OP_NEW_INSTANCE: u8 = 0x03;
const OP_IF: u8 = 0x04;
const OP_GOTO: u8 = 0x05;
const OP_RETURN_VOID: u8 = 0x06;
const OP_NOP: u8 = 0x07;
const OP_MOVE: u8 = 0x08;

/// Hard ceiling on invoke argument counts, mirroring DEX's one-byte
/// argument count. Keeps a forged count from driving a huge allocation
/// before the per-register bounds checks run.
const MAX_INVOKE_ARGS: u64 = 255;

fn zigzag_encode(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

fn zigzag_decode(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

impl Instruction {
    /// Highest register operand mentioned, if the instruction has any.
    pub fn max_reg(&self) -> Option<u16> {
        match self {
            Instruction::Invoke { args, .. } => args.iter().map(|r| r.0).max(),
            Instruction::ConstString { dst, .. } => Some(dst.0),
            Instruction::Move { dst, src } => Some(dst.0.max(src.0)),
            _ => None,
        }
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Instruction::Invoke { kind, method, args } => {
                buf.put_u8(OP_INVOKE);
                buf.put_u8(kind.to_byte());
                put_uvarint(buf, method.0 as u64);
                put_uvarint(buf, args.len() as u64);
                for a in args {
                    put_uvarint(buf, a.0 as u64);
                }
            }
            Instruction::ConstString { dst, string } => {
                buf.put_u8(OP_CONST_STRING);
                put_uvarint(buf, dst.0 as u64);
                put_uvarint(buf, *string as u64);
            }
            Instruction::Move { dst, src } => {
                buf.put_u8(OP_MOVE);
                put_uvarint(buf, dst.0 as u64);
                put_uvarint(buf, src.0 as u64);
            }
            Instruction::NewInstance { ty } => {
                buf.put_u8(OP_NEW_INSTANCE);
                put_uvarint(buf, ty.0 as u64);
            }
            Instruction::IfTest { offset } => {
                buf.put_u8(OP_IF);
                put_uvarint(buf, zigzag_encode(*offset));
            }
            Instruction::Goto { offset } => {
                buf.put_u8(OP_GOTO);
                put_uvarint(buf, zigzag_encode(*offset));
            }
            Instruction::ReturnVoid => buf.put_u8(OP_RETURN_VOID),
            Instruction::Nop => buf.put_u8(OP_NOP),
        }
    }

    /// Decode one instruction.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ApkError> {
        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "instruction opcode",
            });
        }
        let op = buf.get_u8();
        Ok(match op {
            OP_INVOKE => {
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "invoke kind",
                    });
                }
                let kind = InvokeKind::from_byte(buf.get_u8())?;
                let method = MethodId(get_uvarint(buf)? as u32);
                let argc = get_uvarint(buf)?;
                if argc > MAX_INVOKE_ARGS {
                    return Err(ApkError::Invalid("invoke argument count exceeds 255"));
                }
                let mut args = Vec::with_capacity(argc as usize);
                for _ in 0..argc {
                    args.push(Reg(get_uvarint(buf)? as u16));
                }
                Instruction::Invoke { kind, method, args }
            }
            OP_CONST_STRING => Instruction::ConstString {
                dst: Reg(get_uvarint(buf)? as u16),
                string: get_uvarint(buf)? as u32,
            },
            OP_MOVE => Instruction::Move {
                dst: Reg(get_uvarint(buf)? as u16),
                src: Reg(get_uvarint(buf)? as u16),
            },
            OP_NEW_INSTANCE => Instruction::NewInstance {
                ty: TypeId(get_uvarint(buf)? as u32),
            },
            OP_IF => Instruction::IfTest {
                offset: zigzag_decode(get_uvarint(buf)?),
            },
            OP_GOTO => Instruction::Goto {
                offset: zigzag_decode(get_uvarint(buf)?),
            },
            OP_RETURN_VOID => Instruction::ReturnVoid,
            OP_NOP => Instruction::Nop,
            other => return Err(ApkError::BadOpcode(other)),
        })
    }
}

/// A method *defined* in this SDEX file: a method-table reference plus code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    /// Reference into the method table.
    pub method: MethodId,
    /// Declared `public` (affects entry-point discovery for callbacks).
    pub public: bool,
    /// Declared `static`.
    pub static_: bool,
    /// Number of virtual registers the body may touch; every register
    /// operand in `code` must be below this.
    pub registers: u32,
    /// Encoded body.
    pub code: Vec<Instruction>,
}

impl MethodDef {
    /// Build a def whose register count is computed from the code itself
    /// (highest mentioned register + 1).
    pub fn new(method: MethodId, public: bool, static_: bool, code: Vec<Instruction>) -> Self {
        let registers = code
            .iter()
            .filter_map(Instruction::max_reg)
            .map(|r| r as u32 + 1)
            .max()
            .unwrap_or(0);
        MethodDef {
            method,
            public,
            static_,
            registers,
            code,
        }
    }
}

/// A class defined in this SDEX file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// This class's entry in the type table.
    pub ty: TypeId,
    /// Superclass link (`None` only for `java/lang/Object`-rooted synthetics).
    pub superclass: Option<TypeId>,
    /// Class-level flags.
    pub flags: ClassFlags,
    /// Methods with code.
    pub methods: Vec<MethodDef>,
}

/// Location of one string-pool entry inside [`Dex::pool`]. The bytes were
/// UTF-8-validated when the span was recorded, so lookups can slice without
/// re-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StrSpan {
    off: u32,
    len: u32,
}

/// A parsed, validated SDEX file.
///
/// The string pool is a span table into `pool` rather than a
/// `Vec<String>`: for decoded files `pool` is the raw blob itself (shared
/// with the enclosing SAPK section via the `Bytes` refcount — the borrow
/// the pipeline needs, without a lifetime parameter), and for builder-made
/// files it is a packed concatenation of the interned strings. Either way
/// [`Dex::string`] is a bounds-checked slice, never an allocation.
/// Sentinel in [`Dex::class_index`] for types with no class definition.
/// Cannot collide with a real position: class counts are bounded well
/// below `u32::MAX` by the 4 GiB blob cap.
const NO_CLASS: u32 = u32::MAX;

#[derive(Clone)]
pub struct Dex {
    /// Backing bytes every [`StrSpan`] indexes into.
    pool: Bytes,
    strings: Vec<StrSpan>,
    types: Vec<u32>,
    methods: Vec<MethodRef>,
    classes: Vec<ClassDef>,
    /// type -> position in `classes`, direct-indexed by `TypeId` with
    /// [`NO_CLASS`] marking undefined types. An array, not a map: decode
    /// builds it with one `memset`-shaped fill instead of per-class
    /// hashing, and [`Dex::class`] — the hottest lookup in call-graph
    /// construction — is a bounds-checked load.
    class_index: Box<[u32]>,
    /// Stored type lookup table (the optional wire section): slot count a
    /// power of two, each slot `type_index + 1` or `0` for empty. `None`
    /// for blobs encoded without the section.
    lut: Option<Box<[u32]>>,
    /// Lazily built fallback probe table for lut-less dexes, so repeated
    /// name lookups stop being O(types) even without the wire section.
    name_probe: OnceLock<Box<[u32]>>,
}

impl Dex {
    /// String-pool lookup. Panics only if `idx` escaped validation, which
    /// `decode` guarantees cannot happen for parsed files.
    pub fn string(&self, idx: u32) -> &str {
        let s = self.strings[idx as usize];
        let bytes = &self.pool[s.off as usize..s.off as usize + s.len as usize];
        // SAFETY: every span is recorded exactly once, after a successful
        // `str::from_utf8` over these bytes (decode) or from an existing
        // `String` (builder), and `pool` is immutable from then on.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Number of entries in the string pool.
    pub fn string_count(&self) -> usize {
        self.strings.len()
    }

    /// Binary name of a type, e.g. `com/example/Foo`.
    pub fn type_name(&self, ty: TypeId) -> &str {
        self.string(self.types[ty.0 as usize])
    }

    /// All types referenced by this file.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.types.len() as u32).map(TypeId)
    }

    /// Number of entries in the type table — direct-indexed caches (e.g.
    /// the call graph's per-class vtables) size themselves from this.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The method table entry for `id`.
    pub fn method_ref(&self, id: MethodId) -> MethodRef {
        self.methods[id.0 as usize]
    }

    /// Method name for `id`.
    pub fn method_name(&self, id: MethodId) -> &str {
        self.string(self.methods[id.0 as usize].name)
    }

    /// Method descriptor for `id`.
    pub fn method_descriptor(&self, id: MethodId) -> &str {
        self.string(self.methods[id.0 as usize].descriptor)
    }

    /// Number of entries in the method table.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Classes defined in this file.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Mutable access to the class definitions — the corruption module
    /// re-encodes damaged method bodies through this.
    pub(crate) fn classes_mut(&mut self) -> &mut [ClassDef] {
        &mut self.classes
    }

    /// Look up a defined class by type id.
    pub fn class(&self, ty: TypeId) -> Option<&ClassDef> {
        match self.class_index.get(ty.0 as usize) {
            Some(&i) if i != NO_CLASS => self.classes.get(i as usize),
            _ => None,
        }
    }

    /// Look up a type id by binary name: an O(1) probe into the stored
    /// lookup table when the blob carries one, otherwise into a fallback
    /// table built lazily on the first name lookup.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        match &self.lut {
            Some(slots) => self.probe_lut(slots, name),
            None => {
                let slots = self
                    .name_probe
                    .get_or_init(|| build_type_lut(self.types.len(), |t| self.name_bytes(t)));
                self.probe_lut(slots, name)
            }
        }
    }

    /// Raw name bytes of type `t` — probe-side comparisons use bytes, not
    /// `&str`, so they stay well-defined under trusted presets that skipped
    /// the UTF-8 scan.
    fn name_bytes(&self, t: u32) -> &[u8] {
        let s = self.strings[self.types[t as usize] as usize];
        &self.pool[s.off as usize..(s.off + s.len) as usize]
    }

    /// Probe an open-addressing table for `name`. Defensive against
    /// damaged *trusted* tables: out-of-range slot values are skipped and a
    /// pathological full table terminates after one lap, so the worst a bad
    /// table yields on a trusted path is a miss, never a panic or a spin.
    fn probe_lut(&self, slots: &[u32], name: &str) -> Option<TypeId> {
        if slots.is_empty() {
            return None;
        }
        let mask = slots.len() - 1;
        let mut i = fnv1a(name.as_bytes()) as usize & mask;
        for _ in 0..slots.len() {
            let v = slots[i];
            if v == 0 {
                return None;
            }
            let t = v - 1;
            let matches = self
                .types
                .get(t as usize)
                .and_then(|&s| self.strings.get(s as usize))
                .is_some_and(|s| {
                    self.pool
                        .get(s.off as usize..(s.off + s.len) as usize)
                        .is_some_and(|b| b == name.as_bytes())
                });
            if matches {
                return Some(TypeId(t));
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Whether this dex carries a stored (wire-format) type lookup table.
    pub fn has_lookup_table(&self) -> bool {
        self.lut.is_some()
    }

    /// Whether the lazy fallback probe table was built because no stored
    /// table was present — the pipeline's `lut_rebuilds` counter samples
    /// this after analysis.
    pub fn lookup_table_rebuilt(&self) -> bool {
        self.name_probe.get().is_some()
    }

    /// Mutable slots of the stored lookup table — the corruption module
    /// damages tables through this.
    pub(crate) fn lut_slots_mut(&mut self) -> Option<&mut [u32]> {
        self.lut.as_deref_mut()
    }

    /// Drop the stored lookup-table section, if any. Name lookups fall
    /// back to the lazily built probe table; re-encoding emits the
    /// lut-absent flag. This is the pipeline's `use_lut = false` ablation
    /// knob.
    pub fn discard_lookup_table(&mut self) {
        self.lut = None;
    }

    /// Look up a defined class by binary name.
    pub fn class_by_name(&self, name: &str) -> Option<&ClassDef> {
        self.type_by_name(name).and_then(|t| self.class(t))
    }

    /// Walk the superclass chain of `ty` (excluding `ty` itself), yielding
    /// type ids until the chain leaves the defined set. Allocation-free;
    /// the call-graph resolver and entry-point discovery iterate this per
    /// invoke site / per class, so it must not build a `Vec` each time.
    pub fn superclasses(&self, ty: TypeId) -> Superclasses<'_> {
        Superclasses {
            dex: self,
            cur: self.class(ty).and_then(|c| c.superclass),
        }
    }

    /// Total number of instructions across every defined method — a useful
    /// size metric for benches.
    pub fn instruction_count(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.code.len())
            .sum()
    }

    /// Serialize to the SDEX wire format.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        put_uvarint(&mut body, self.strings.len() as u64);
        for i in 0..self.strings.len() as u32 {
            put_string(&mut body, self.string(i));
        }
        put_uvarint(&mut body, self.types.len() as u64);
        for &s in &self.types {
            put_uvarint(&mut body, s as u64);
        }
        put_uvarint(&mut body, self.methods.len() as u64);
        for m in &self.methods {
            put_uvarint(&mut body, m.class.0 as u64);
            put_uvarint(&mut body, m.name as u64);
            put_uvarint(&mut body, m.descriptor as u64);
        }
        put_uvarint(&mut body, self.classes.len() as u64);
        for c in &self.classes {
            put_uvarint(&mut body, c.ty.0 as u64);
            match c.superclass {
                Some(s) => {
                    body.put_u8(1);
                    put_uvarint(&mut body, s.0 as u64);
                }
                None => body.put_u8(0),
            }
            put_uvarint(&mut body, c.flags.to_bits());
            put_uvarint(&mut body, c.methods.len() as u64);
            for m in &c.methods {
                put_uvarint(&mut body, m.method.0 as u64);
                body.put_u8(m.public as u8 | (m.static_ as u8) << 1);
                put_uvarint(&mut body, m.registers as u64);
                put_uvarint(&mut body, m.code.len() as u64);
                for ins in &m.code {
                    ins.encode(&mut body);
                }
            }
        }
        // v3 lookup-table section: a flag byte, then the stored table
        // verbatim. Emitting the *stored* slots (never recomputing) keeps
        // encoding canonical: decode(encode(d)) == d byte-for-byte.
        match &self.lut {
            Some(slots) => {
                body.put_u8(1);
                put_uvarint(&mut body, slots.len() as u64);
                for &s in slots.iter() {
                    body.put_u32_le(s);
                }
            }
            None => body.put_u8(0),
        }

        let mut out = BytesMut::with_capacity(body.len() + 10);
        out.put_slice(&SDEX_MAGIC);
        out.put_u16_le(SDEX_VERSION);
        out.put_u32_le(adler32(&body));
        out.put_slice(&body);
        out.freeze()
    }

    /// Parse and validate an SDEX blob from a borrowed slice.
    ///
    /// Copies the blob once up front (the span table needs backing bytes
    /// that outlive this call); callers that already hold the blob as
    /// [`Bytes`] — e.g. an SAPK section — should use [`Dex::decode_bytes`],
    /// which shares the buffer instead of copying it.
    pub fn decode(raw: &[u8]) -> Result<Dex, ApkError> {
        Dex::decode_bytes(Bytes::copy_from_slice(raw))
    }

    /// Parse and validate an SDEX blob, zero-copy.
    ///
    /// One linear pass does all validation the old owning decoder did —
    /// UTF-8 over every pool entry, index bounds, instruction opcodes,
    /// checksum, structure — but records `(offset, len)` spans instead of
    /// materializing strings. The returned [`Dex`] keeps `raw` alive via
    /// the `Bytes` refcount; no byte of string data is copied.
    ///
    /// Equivalent to [`Dex::decode_bytes_with`] at [`VerifyPreset::All`].
    pub fn decode_bytes(raw: Bytes) -> Result<Dex, ApkError> {
        Dex::decode_bytes_with(raw, VerifyPreset::All)
    }

    /// Parse an SDEX blob under an explicit [`VerifyPreset`].
    ///
    /// `All` is full validation (the corruption-facing default); `None`
    /// skips the Adler-32 gate and the per-entry structural re-validation.
    /// The trusted preset still parses every table (truncation and varint
    /// malformations are detected — the cursor has to walk the bytes
    /// anyway) and still bounds-checks string spans against the blob, so it
    /// can never read out of bounds; what it skips is the *semantic*
    /// re-validation (UTF-8, index ranges, register bounds, hierarchy
    /// acyclicity, lookup-table canonicality) already performed when the
    /// blob was first admitted to the corpus.
    pub fn decode_bytes_with(raw: Bytes, preset: VerifyPreset) -> Result<Dex, ApkError> {
        let verify = preset.verifies();
        if raw.len() > u32::MAX as usize {
            // Spans are u32; real SDEX blobs are megabytes, not gigabytes.
            return Err(ApkError::Invalid("sdex blob exceeds 4 GiB"));
        }
        let full: &[u8] = &raw;
        let mut buf: &[u8] = full;
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SDEX_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SDEX",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SDEX_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        if verify {
            let computed = adler32(buf);
            if stored != computed {
                return Err(ApkError::ChecksumMismatch { stored, computed });
            }
        }

        let string_count = get_uvarint(&mut buf)? as usize;
        let mut strings = Vec::with_capacity(string_count.min(1 << 20));
        for _ in 0..string_count {
            let (off, len) = if verify {
                get_string_span(full, &mut buf)?
            } else {
                get_string_span_unchecked(full, &mut buf)?
            };
            strings.push(StrSpan { off, len });
        }

        let type_count = get_uvarint(&mut buf)? as usize;
        let mut types = Vec::with_capacity(type_count.min(1 << 20));
        for _ in 0..type_count {
            let s = get_uvarint(&mut buf)? as u32;
            if verify {
                check_index("string", s, strings.len())?;
            }
            types.push(s);
        }

        let method_count = get_uvarint(&mut buf)? as usize;
        let mut methods = Vec::with_capacity(method_count.min(1 << 20));
        for _ in 0..method_count {
            let class = TypeId(get_uvarint(&mut buf)? as u32);
            let name = get_uvarint(&mut buf)? as u32;
            let descriptor = get_uvarint(&mut buf)? as u32;
            if verify {
                check_index("type", class.0, types.len())?;
                check_index("string", name, strings.len())?;
                check_index("string", descriptor, strings.len())?;
            }
            methods.push(MethodRef {
                class,
                name,
                descriptor,
            });
        }

        let class_count = get_uvarint(&mut buf)? as usize;
        let mut classes = Vec::with_capacity(class_count.min(1 << 20));
        let mut class_index = vec![NO_CLASS; types.len()].into_boxed_slice();
        for _ in 0..class_count {
            let ty = TypeId(get_uvarint(&mut buf)? as u32);
            if verify {
                check_index("type", ty.0, types.len())?;
            }
            if !buf.has_remaining() {
                return Err(ApkError::Truncated {
                    context: "superclass flag",
                });
            }
            let superclass = match buf.get_u8() {
                0 => None,
                _ => {
                    let s = TypeId(get_uvarint(&mut buf)? as u32);
                    if verify {
                        check_index("type", s.0, types.len())?;
                    }
                    Some(s)
                }
            };
            let flags = ClassFlags::from_bits(get_uvarint(&mut buf)?);
            let def_count = get_uvarint(&mut buf)? as usize;
            let mut defs = Vec::with_capacity(def_count.min(1 << 16));
            for _ in 0..def_count {
                let method = MethodId(get_uvarint(&mut buf)? as u32);
                if verify {
                    check_index("method", method.0, methods.len())?;
                }
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "method flags",
                    });
                }
                let fl = buf.get_u8();
                let registers = get_uvarint(&mut buf)? as u32;
                let code_len = get_uvarint(&mut buf)? as usize;
                let mut code = Vec::with_capacity(code_len.min(1 << 16));
                for _ in 0..code_len {
                    let ins = Instruction::decode(&mut buf)?;
                    if verify {
                        validate_instruction(
                            &ins,
                            strings.len(),
                            types.len(),
                            methods.len(),
                            registers,
                        )?;
                    }
                    code.push(ins);
                }
                defs.push(MethodDef {
                    method,
                    public: fl & 1 != 0,
                    static_: fl & 2 != 0,
                    registers,
                    code,
                });
            }
            match class_index.get_mut(ty.0 as usize) {
                Some(slot) if *slot == NO_CLASS => *slot = classes.len() as u32,
                Some(_) => return Err(ApkError::Invalid("duplicate class definition")),
                // A type id past the table is only reachable under trusted
                // presets (`All` rejected it via `check_index` above);
                // tolerate it — the class stays in `classes` but cannot be
                // found by type lookup, the same garbage-in posture as
                // `probe_lut`.
                None => {}
            }
            classes.push(ClassDef {
                ty,
                superclass,
                flags,
                methods: defs,
            });
        }

        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "lookup-table flag",
            });
        }
        let lut = match buf.get_u8() {
            0 => None,
            _ => {
                let slot_count = get_uvarint(&mut buf)? as usize;
                // Size guards run under every preset: the remaining-bytes
                // check stops a forged count from driving a huge
                // allocation, and the probe mask needs a power of two.
                if buf.remaining() / 4 < slot_count {
                    return Err(ApkError::Truncated {
                        context: "lookup-table slots",
                    });
                }
                if !slot_count.is_power_of_two() {
                    return Err(ApkError::Invalid("lookup table size not a power of two"));
                }
                let mut slots = Vec::with_capacity(slot_count);
                for _ in 0..slot_count {
                    slots.push(buf.get_u32_le());
                }
                let slots = slots.into_boxed_slice();
                if verify {
                    for &v in slots.iter() {
                        if v != 0 {
                            check_index("type", v - 1, types.len())?;
                        }
                    }
                    let canonical = build_type_lut(types.len(), |t| {
                        let s = strings[types[t as usize] as usize];
                        &full[s.off as usize..(s.off + s.len) as usize]
                    });
                    if canonical != slots {
                        return Err(ApkError::Invalid("lookup table mismatch"));
                    }
                }
                Some(slots)
            }
        };

        if buf.has_remaining() {
            return Err(ApkError::Invalid("trailing bytes after class table"));
        }

        let dex = Dex {
            pool: raw,
            strings,
            types,
            methods,
            classes,
            class_index,
            lut,
            name_probe: OnceLock::new(),
        };
        if verify {
            dex.validate_hierarchy()?;
        }
        Ok(dex)
    }

    /// Reject superclass cycles among defined classes.
    fn validate_hierarchy(&self) -> Result<(), ApkError> {
        for c in &self.classes {
            let mut seen = 0usize;
            let mut cur = c.superclass;
            while let Some(s) = cur {
                seen += 1;
                if seen > self.classes.len() {
                    return Err(ApkError::Invalid("superclass cycle"));
                }
                cur = self.class(s).and_then(|d| d.superclass);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Dex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Resolve the pool for readable test diffs instead of dumping spans
        // plus a byte soup.
        let strings: Vec<&str> = (0..self.strings.len() as u32)
            .map(|i| self.string(i))
            .collect();
        f.debug_struct("Dex")
            .field("strings", &strings)
            .field("types", &self.types)
            .field("methods", &self.methods)
            .field("classes", &self.classes)
            .finish()
    }
}

/// Equality by content: two dexes are equal when their resolved string
/// pools and tables match, regardless of whether the pool bytes live in a
/// decoded blob or a builder-packed buffer.
impl PartialEq for Dex {
    fn eq(&self, other: &Self) -> bool {
        self.strings.len() == other.strings.len()
            && (0..self.strings.len() as u32).all(|i| self.string(i) == other.string(i))
            && self.types == other.types
            && self.methods == other.methods
            && self.classes == other.classes
    }
}

impl Eq for Dex {}

/// Iterator over the defined ancestors of a type, produced by
/// [`Dex::superclasses`]. Terminates because `Dex::decode` rejects
/// superclass cycles (builder-made dexes are trusted the same way).
#[derive(Debug, Clone)]
pub struct Superclasses<'d> {
    dex: &'d Dex,
    cur: Option<TypeId>,
}

impl Iterator for Superclasses<'_> {
    type Item = TypeId;

    fn next(&mut self) -> Option<TypeId> {
        let s = self.cur?;
        self.cur = self.dex.class(s).and_then(|c| c.superclass);
        Some(s)
    }
}

/// 32-bit FNV-1a over a type's binary name — the lookup-table hash.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Slot count for a lookup table over `type_count` entries: the next power
/// of two at or above twice the entry count, so load factor stays ≤ 0.5 and
/// linear probe chains stay short. A typeless dex gets a single empty slot.
fn lut_slot_count(type_count: usize) -> usize {
    (type_count * 2).next_power_of_two()
}

/// Build the canonical type lookup table: open addressing with linear
/// probing, slots storing `type_index + 1` (`0` = empty). Types are
/// inserted in table order, so among duplicate names the smallest type id
/// sits earliest on its probe chain — probing preserves the first-match
/// semantics of the linear scan it replaces.
fn build_type_lut<'a>(type_count: usize, name_of: impl Fn(u32) -> &'a [u8]) -> Box<[u32]> {
    let cap = lut_slot_count(type_count);
    let mut slots = vec![0u32; cap].into_boxed_slice();
    let mask = cap - 1;
    for t in 0..type_count as u32 {
        let mut i = fnv1a(name_of(t)) as usize & mask;
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = t + 1;
    }
    slots
}

fn check_index(table: &'static str, index: u32, len: usize) -> Result<(), ApkError> {
    if (index as usize) < len {
        Ok(())
    } else {
        Err(ApkError::IndexOutOfRange {
            table,
            index,
            len: len as u32,
        })
    }
}

fn validate_instruction(
    ins: &Instruction,
    strings: usize,
    types: usize,
    methods: usize,
    registers: u32,
) -> Result<(), ApkError> {
    let check_reg = |r: Reg| check_index("register", r.0 as u32, registers as usize);
    match ins {
        Instruction::Invoke { method, args, .. } => {
            check_index("method", method.0, methods)?;
            args.iter().try_for_each(|&a| check_reg(a))
        }
        Instruction::ConstString { dst, string } => {
            check_index("string", *string, strings)?;
            check_reg(*dst)
        }
        Instruction::Move { dst, src } => {
            check_reg(*dst)?;
            check_reg(*src)
        }
        Instruction::NewInstance { ty } => check_index("type", ty.0, types),
        _ => Ok(()),
    }
}

/// Incremental writer for [`Dex`] files with interning of strings, types,
/// and method references. This is what the corpus generator lowers app
/// behaviour through.
#[derive(Debug, Default)]
pub struct DexBuilder {
    strings: Vec<String>,
    string_index: HashMap<String, u32>,
    types: Vec<u32>,
    type_index: HashMap<u32, TypeId>,
    methods: Vec<MethodRef>,
    method_index: HashMap<(TypeId, u32, u32), MethodId>,
    classes: Vec<ClassDef>,
    class_index: HashMap<TypeId, usize>,
}

impl DexBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its pool index.
    pub fn intern_string(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.string_index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.string_index.insert(s.to_owned(), i);
        i
    }

    /// Intern a type by binary name.
    pub fn intern_type(&mut self, name: &str) -> TypeId {
        let s = self.intern_string(name);
        if let Some(&t) = self.type_index.get(&s) {
            return t;
        }
        let t = TypeId(self.types.len() as u32);
        self.types.push(s);
        self.type_index.insert(s, t);
        t
    }

    /// Intern a method reference.
    pub fn intern_method(&mut self, class: &str, name: &str, descriptor: &str) -> MethodId {
        let class = self.intern_type(class);
        let name = self.intern_string(name);
        let descriptor = self.intern_string(descriptor);
        let key = (class, name, descriptor);
        if let Some(&m) = self.method_index.get(&key) {
            return m;
        }
        let m = MethodId(self.methods.len() as u32);
        self.methods.push(MethodRef {
            class,
            name,
            descriptor,
        });
        self.method_index.insert(key, m);
        m
    }

    /// Define a class. Returns an error token if the class already exists.
    pub fn define_class(
        &mut self,
        name: &str,
        superclass: Option<&str>,
        flags: ClassFlags,
        methods: Vec<MethodDef>,
    ) -> Result<TypeId, ApkError> {
        let ty = self.intern_type(name);
        if self.class_index.contains_key(&ty) {
            return Err(ApkError::Invalid("duplicate class definition"));
        }
        let superclass = superclass.map(|s| self.intern_type(s));
        self.class_index.insert(ty, self.classes.len());
        self.classes.push(ClassDef {
            ty,
            superclass,
            flags,
            methods,
        });
        Ok(ty)
    }

    /// Whether a class with this name is already defined.
    pub fn has_class(&self, name: &str) -> bool {
        self.string_index
            .get(name)
            .and_then(|s| self.type_index.get(s))
            .is_some_and(|t| self.class_index.contains_key(t))
    }

    /// Finish, producing an immutable [`Dex`]. The interned strings are
    /// packed into one contiguous pool so lookups go through the same span
    /// path as decoded files.
    pub fn build(self) -> Dex {
        let total: usize = self.strings.iter().map(String::len).sum();
        let mut pool = BytesMut::with_capacity(total);
        let mut spans = Vec::with_capacity(self.strings.len());
        for s in &self.strings {
            spans.push(StrSpan {
                off: pool.len() as u32,
                len: s.len() as u32,
            });
            pool.put_slice(s.as_bytes());
        }
        let pool = pool.freeze();
        // Builder-made dexes always carry the lookup table, so every
        // generator-produced blob encodes the v3 section and decoded
        // corpora get O(1) name lookups without a lazy rebuild.
        let lut = build_type_lut(self.types.len(), |t| {
            let s = spans[self.types[t as usize] as usize];
            &pool[s.off as usize..(s.off + s.len) as usize]
        });
        let mut class_index = vec![NO_CLASS; self.types.len()].into_boxed_slice();
        for (ty, i) in self.class_index {
            class_index[ty.0 as usize] = i as u32;
        }
        Dex {
            pool,
            strings: spans,
            types: self.types,
            methods: self.methods,
            classes: self.classes,
            class_index,
            lut: Some(lut),
            name_probe: OnceLock::new(),
        }
    }
}

/// The pre-zero-copy owning decoder, kept as an equivalence oracle.
///
/// [`Dex::decode_bytes`] validates in one pass and records spans;
/// [`decode`](oracle::decode) here materializes an owned `String` per pool
/// entry, exactly as the parser shipped before the zero-copy refactor. The
/// property suite in `tests/decode_equivalence.rs` pins the two together:
/// identical `Ok` structures and identical [`ApkError`] kinds over valid
/// blobs and every `corrupt.rs` mutation.
pub mod oracle {
    use super::*;
    use crate::wire::get_string;

    /// Decoded SDEX with an owned string pool — the old representation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OwnedDex {
        /// Owned string pool, one allocation per entry.
        pub strings: Vec<String>,
        /// Type table (string-pool indices).
        pub types: Vec<u32>,
        /// Method table.
        pub methods: Vec<MethodRef>,
        /// Defined classes.
        pub classes: Vec<ClassDef>,
    }

    /// Structural equality against the zero-copy representation: the pools
    /// resolve to the same strings and the tables match.
    impl PartialEq<OwnedDex> for Dex {
        fn eq(&self, other: &OwnedDex) -> bool {
            self.string_count() == other.strings.len()
                && (0..other.strings.len() as u32)
                    .all(|i| self.string(i) == other.strings[i as usize])
                && self.types == other.types
                && self.methods == other.methods
                && self.classes == other.classes
        }
    }

    impl PartialEq<Dex> for OwnedDex {
        fn eq(&self, other: &Dex) -> bool {
            other == self
        }
    }

    /// Parse and validate an SDEX blob the old way: owned `String` per
    /// pool entry, identical validation order and error kinds.
    ///
    /// Equivalent to [`decode_with`] at [`VerifyPreset::All`].
    pub fn decode(raw: &[u8]) -> Result<OwnedDex, ApkError> {
        decode_with(raw, VerifyPreset::All)
    }

    /// Preset-aware owning decoder, mirroring [`Dex::decode_bytes_with`]
    /// check for check so the equivalence suite can pin the two across
    /// every preset.
    pub fn decode_with(raw: &[u8], preset: VerifyPreset) -> Result<OwnedDex, ApkError> {
        let verify = preset.verifies();
        if raw.len() > u32::MAX as usize {
            // Mirrors the span-width guard in `Dex::decode_bytes` so the
            // two decoders stay equivalent on every input.
            return Err(ApkError::Invalid("sdex blob exceeds 4 GiB"));
        }
        let mut buf = raw;
        if buf.remaining() < 4 {
            return Err(ApkError::Truncated { context: "magic" });
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != SDEX_MAGIC {
            return Err(ApkError::BadMagic {
                expected: "SDEX",
                found: magic,
            });
        }
        if buf.remaining() < 6 {
            return Err(ApkError::Truncated { context: "header" });
        }
        let version = buf.get_u16_le();
        if version != SDEX_VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let stored = buf.get_u32_le();
        if verify {
            let computed = adler32(buf);
            if stored != computed {
                return Err(ApkError::ChecksumMismatch { stored, computed });
            }
        }

        let string_count = get_uvarint(&mut buf)? as usize;
        let mut strings = Vec::with_capacity(string_count.min(1 << 20));
        for _ in 0..string_count {
            strings.push(if verify {
                get_string(&mut buf)?
            } else {
                let len = get_uvarint(&mut buf)? as usize;
                let raw = crate::wire::get_bytes(&mut buf, len, "string")?;
                // SAFETY: the trusted-preset contract — these bytes passed
                // a full `All` decode when first admitted to the corpus.
                unsafe { String::from_utf8_unchecked(raw) }
            });
        }

        let type_count = get_uvarint(&mut buf)? as usize;
        let mut types = Vec::with_capacity(type_count.min(1 << 20));
        for _ in 0..type_count {
            let s = get_uvarint(&mut buf)? as u32;
            if verify {
                check_index("string", s, strings.len())?;
            }
            types.push(s);
        }

        let method_count = get_uvarint(&mut buf)? as usize;
        let mut methods = Vec::with_capacity(method_count.min(1 << 20));
        for _ in 0..method_count {
            let class = TypeId(get_uvarint(&mut buf)? as u32);
            let name = get_uvarint(&mut buf)? as u32;
            let descriptor = get_uvarint(&mut buf)? as u32;
            if verify {
                check_index("type", class.0, types.len())?;
                check_index("string", name, strings.len())?;
                check_index("string", descriptor, strings.len())?;
            }
            methods.push(MethodRef {
                class,
                name,
                descriptor,
            });
        }

        let class_count = get_uvarint(&mut buf)? as usize;
        let mut classes: Vec<ClassDef> = Vec::with_capacity(class_count.min(1 << 20));
        let mut class_index = HashMap::with_capacity(class_count.min(1 << 20));
        for _ in 0..class_count {
            let ty = TypeId(get_uvarint(&mut buf)? as u32);
            if verify {
                check_index("type", ty.0, types.len())?;
            }
            if !buf.has_remaining() {
                return Err(ApkError::Truncated {
                    context: "superclass flag",
                });
            }
            let superclass = match buf.get_u8() {
                0 => None,
                _ => {
                    let s = TypeId(get_uvarint(&mut buf)? as u32);
                    if verify {
                        check_index("type", s.0, types.len())?;
                    }
                    Some(s)
                }
            };
            let flags = ClassFlags::from_bits(get_uvarint(&mut buf)?);
            let def_count = get_uvarint(&mut buf)? as usize;
            let mut defs = Vec::with_capacity(def_count.min(1 << 16));
            for _ in 0..def_count {
                let method = MethodId(get_uvarint(&mut buf)? as u32);
                if verify {
                    check_index("method", method.0, methods.len())?;
                }
                if !buf.has_remaining() {
                    return Err(ApkError::Truncated {
                        context: "method flags",
                    });
                }
                let fl = buf.get_u8();
                let registers = get_uvarint(&mut buf)? as u32;
                let code_len = get_uvarint(&mut buf)? as usize;
                let mut code = Vec::with_capacity(code_len.min(1 << 16));
                for _ in 0..code_len {
                    let ins = Instruction::decode(&mut buf)?;
                    if verify {
                        validate_instruction(
                            &ins,
                            strings.len(),
                            types.len(),
                            methods.len(),
                            registers,
                        )?;
                    }
                    code.push(ins);
                }
                defs.push(MethodDef {
                    method,
                    public: fl & 1 != 0,
                    static_: fl & 2 != 0,
                    registers,
                    code,
                });
            }
            if class_index.insert(ty, classes.len()).is_some() {
                return Err(ApkError::Invalid("duplicate class definition"));
            }
            classes.push(ClassDef {
                ty,
                superclass,
                flags,
                methods: defs,
            });
        }

        // Lookup-table section: parsed (and at `All` verified) exactly
        // like the zero-copy decoder, then dropped — the owning
        // representation predates the section and name lookups on it are
        // not on any hot path.
        if !buf.has_remaining() {
            return Err(ApkError::Truncated {
                context: "lookup-table flag",
            });
        }
        if buf.get_u8() != 0 {
            let slot_count = get_uvarint(&mut buf)? as usize;
            if buf.remaining() / 4 < slot_count {
                return Err(ApkError::Truncated {
                    context: "lookup-table slots",
                });
            }
            if !slot_count.is_power_of_two() {
                return Err(ApkError::Invalid("lookup table size not a power of two"));
            }
            let mut slots = Vec::with_capacity(slot_count);
            for _ in 0..slot_count {
                slots.push(buf.get_u32_le());
            }
            let slots = slots.into_boxed_slice();
            if verify {
                for &v in slots.iter() {
                    if v != 0 {
                        check_index("type", v - 1, types.len())?;
                    }
                }
                let canonical = build_type_lut(types.len(), |t| {
                    strings[types[t as usize] as usize].as_bytes()
                });
                if canonical != slots {
                    return Err(ApkError::Invalid("lookup table mismatch"));
                }
            }
        }

        if buf.has_remaining() {
            return Err(ApkError::Invalid("trailing bytes after class table"));
        }

        // Cycle check, same walk as `Dex::validate_hierarchy`.
        if verify {
            for c in &classes {
                let mut seen = 0usize;
                let mut cur = c.superclass;
                while let Some(s) = cur {
                    seen += 1;
                    if seen > classes.len() {
                        return Err(ApkError::Invalid("superclass cycle"));
                    }
                    cur = class_index.get(&s).and_then(|&i| classes[i].superclass);
                }
            }
        }

        Ok(OwnedDex {
            strings,
            types,
            methods,
            classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but structurally complete dex: an activity whose `onCreate`
    /// calls an SDK helper which calls `WebView.loadUrl`.
    pub(crate) fn sample_dex() -> Dex {
        let mut b = DexBuilder::new();
        let load_url =
            b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://ads.example.net/creative");
        let helper = b.intern_method("com/applovin/adview/AdRenderer", "render", "()V");
        b.define_class(
            "com/applovin/adview/AdRenderer",
            Some("java/lang/Object"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![MethodDef::new(
                helper,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load_url,
                        args: vec![Reg(0)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        let on_create = b.intern_method("com/example/app/MainActivity", "onCreate", "(B)V");
        b.define_class(
            "com/example/app/MainActivity",
            Some("android/app/Activity"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![MethodDef::new(
                on_create,
                true,
                false,
                vec![
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: helper,
                        args: vec![],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn roundtrip_sample() {
        let dex = sample_dex();
        let bytes = dex.encode();
        let back = Dex::decode(&bytes).unwrap();
        assert_eq!(dex, back);
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let blob = sample_dex().encode();
        let back = Dex::decode_bytes(blob.clone()).unwrap();
        // The resolved strings point into the blob itself, not a copy.
        let range = blob.as_ptr() as usize..blob.as_ptr() as usize + blob.len();
        for i in 0..back.string_count() as u32 {
            let s = back.string(i);
            assert!(
                s.is_empty() || range.contains(&(s.as_ptr() as usize)),
                "string {i} was copied out of the blob"
            );
        }
        assert_eq!(back, sample_dex());
    }

    #[test]
    fn oracle_matches_zero_copy_on_sample() {
        let bytes = sample_dex().encode();
        let zc = Dex::decode(&bytes).unwrap();
        let owned = oracle::decode(&bytes).unwrap();
        assert_eq!(zc, owned);
        assert_eq!(owned, zc);
    }

    #[test]
    fn builder_interns() {
        let mut b = DexBuilder::new();
        let a = b.intern_string("x");
        let a2 = b.intern_string("x");
        assert_eq!(a, a2);
        let t = b.intern_type("com/example/T");
        let t2 = b.intern_type("com/example/T");
        assert_eq!(t, t2);
        let m = b.intern_method("com/example/T", "f", "()V");
        let m2 = b.intern_method("com/example/T", "f", "()V");
        assert_eq!(m, m2);
        let m3 = b.intern_method("com/example/T", "f", "(I)V");
        assert_ne!(m, m3);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = DexBuilder::new();
        b.define_class("com/x/A", None, ClassFlags::default(), vec![])
            .unwrap();
        assert!(b
            .define_class("com/x/A", None, ClassFlags::default(), vec![])
            .is_err());
    }

    #[test]
    fn lookup_helpers() {
        let dex = sample_dex();
        let act = dex.class_by_name("com/example/app/MainActivity").unwrap();
        assert_eq!(dex.type_name(act.ty), "com/example/app/MainActivity");
        assert_eq!(
            dex.type_name(act.superclass.unwrap()),
            "android/app/Activity"
        );
        assert!(dex.class_by_name("missing/Class").is_none());
        let wv = dex.type_by_name("android/webkit/WebView").unwrap();
        // WebView is referenced but not defined here.
        assert!(dex.class(wv).is_none());
    }

    #[test]
    fn checksum_detects_flip() {
        let bytes = sample_dex().encode().to_vec();
        let mut bad = bytes.clone();
        let i = bytes.len() - 3;
        bad[i] ^= 0x40;
        match Dex::decode(&bad) {
            Err(ApkError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_dex().encode().to_vec();
        bytes[0] = b'Z';
        assert!(matches!(
            Dex::decode(&bytes),
            Err(ApkError::BadMagic {
                expected: "SDEX",
                ..
            })
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        // Only the version the encoder emits decodes; the older register-
        // less (1) and lut-less (2) layouts fail fast like any unknown one.
        let blob = sample_dex().encode().to_vec();
        for version in [0u16, 1, 2, SDEX_VERSION + 1, 0xff] {
            let mut bytes = blob.clone();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            for preset in [VerifyPreset::All, VerifyPreset::None] {
                assert!(matches!(
                    Dex::decode_bytes_with(Bytes::from(bytes.clone()), preset),
                    Err(ApkError::UnsupportedVersion(v)) if v == version
                ));
                assert!(matches!(
                    oracle::decode_with(&bytes, preset),
                    Err(ApkError::UnsupportedVersion(v)) if v == version
                ));
            }
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_dex().encode();
        for cut in 0..bytes.len() {
            assert!(
                Dex::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix of a {}-byte file",
                bytes.len()
            );
        }
    }

    #[test]
    fn superclass_cycle_rejected() {
        // Hand-assemble a dex whose A extends B extends A.
        let mut b = DexBuilder::new();
        b.intern_type("com/x/A");
        b.intern_type("com/x/B");
        let mut dex = b.build();
        let a = dex.type_by_name("com/x/A").unwrap();
        let bb = dex.type_by_name("com/x/B").unwrap();
        dex.classes.push(ClassDef {
            ty: a,
            superclass: Some(bb),
            flags: ClassFlags::default(),
            methods: vec![],
        });
        dex.classes.push(ClassDef {
            ty: bb,
            superclass: Some(a),
            flags: ClassFlags::default(),
            methods: vec![],
        });
        dex.class_index[a.0 as usize] = 0;
        dex.class_index[bb.0 as usize] = 1;
        let bytes = dex.encode();
        assert_eq!(
            Dex::decode(&bytes),
            Err(ApkError::Invalid("superclass cycle"))
        );
    }

    #[test]
    fn superclasses_walks_defined_classes() {
        let mut b = DexBuilder::new();
        let m = b.intern_method("com/x/C", "f", "()V");
        b.define_class(
            "com/x/A",
            Some("android/webkit/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class("com/x/B", Some("com/x/A"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class(
            "com/x/C",
            Some("com/x/B"),
            ClassFlags::default(),
            vec![MethodDef::new(
                m,
                true,
                false,
                vec![Instruction::ReturnVoid],
            )],
        )
        .unwrap();
        let dex = b.build();
        let c = dex.type_by_name("com/x/C").unwrap();
        let chain: Vec<_> = dex
            .superclasses(c)
            .map(|t| dex.type_name(t).to_owned())
            .collect();
        assert_eq!(chain, ["com/x/B", "com/x/A", "android/webkit/WebView"]);
    }

    #[test]
    fn instruction_count() {
        assert_eq!(sample_dex().instruction_count(), 5);
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Appending bytes invalidates the checksum; fixing the checksum then
        // trips the trailing-bytes rule. Cover the latter path directly.
        let dex = sample_dex();
        let encoded = dex.encode();
        let mut body = encoded[10..].to_vec();
        body.push(0x00);
        let mut forged = Vec::new();
        forged.extend_from_slice(&SDEX_MAGIC);
        forged.extend_from_slice(&SDEX_VERSION.to_le_bytes());
        forged.extend_from_slice(&crate::wire::adler32(&body).to_le_bytes());
        forged.extend_from_slice(&body);
        assert!(matches!(Dex::decode(&forged), Err(ApkError::Invalid(_))));
    }

    #[test]
    fn empty_dex_roundtrips() {
        let dex = DexBuilder::new().build();
        let back = Dex::decode(&dex.encode()).unwrap();
        assert_eq!(back.classes().len(), 0);
        assert_eq!(back.string_count(), 0);
    }

    #[test]
    fn register_shuffled_code_roundtrips() {
        let mut b = DexBuilder::new();
        let load_url =
            b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://cdn.example/page");
        let decoy = b.intern_string("decoy");
        let m = b.intern_method("com/x/A", "go", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef::new(
                m,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::ConstString {
                        dst: Reg(1),
                        string: decoy,
                    },
                    Instruction::Move {
                        dst: Reg(2),
                        src: Reg(0),
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load_url,
                        args: vec![Reg(2)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        let dex = b.build();
        assert_eq!(dex.classes()[0].methods[0].registers, 3);
        let back = Dex::decode(&dex.encode()).unwrap();
        assert_eq!(dex, back);
        let owned = oracle::decode(&dex.encode()).unwrap();
        assert_eq!(back, owned);
    }

    #[test]
    fn out_of_range_register_rejected() {
        // Hand-build a def whose register count is too small for its code;
        // the encoder trusts it, the decoder must not.
        let mut b = DexBuilder::new();
        let url = b.intern_string("https://x.example");
        let m = b.intern_method("com/x/A", "f", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef {
                method: m,
                public: true,
                static_: false,
                registers: 1,
                code: vec![
                    Instruction::ConstString {
                        dst: Reg(4),
                        string: url,
                    },
                    Instruction::ReturnVoid,
                ],
            }],
        )
        .unwrap();
        let bytes = b.build().encode();
        for result in [
            Dex::decode(&bytes).err().map(|e| format!("{e:?}")),
            oracle::decode(&bytes).err().map(|e| format!("{e:?}")),
        ] {
            let err = result.expect("decoder accepted an out-of-range register");
            assert!(err.contains("register"), "unexpected error: {err}");
        }
    }

    #[test]
    fn trusted_presets_decode_valid_blobs_identically() {
        let dex = sample_dex();
        let blob = dex.encode();
        for preset in [VerifyPreset::All, VerifyPreset::None] {
            let zc = Dex::decode_bytes_with(blob.clone(), preset).unwrap();
            assert_eq!(zc, dex, "{preset:?}");
            let owned = oracle::decode_with(&blob, preset).unwrap();
            assert_eq!(zc, owned, "{preset:?}");
        }
    }

    #[test]
    fn preset_gates_engage_in_order() {
        // A flipped body byte: All stops at the adler gate, None sails
        // past it (the damage lands in an instruction stream the
        // trusted parse still walks structurally).
        let blob = sample_dex().encode().to_vec();
        let mut bad = blob.clone();
        let i = blob.len() - 3;
        bad[i] ^= 0x40;
        assert!(matches!(
            Dex::decode_bytes_with(Bytes::from(bad.clone()), VerifyPreset::All),
            Err(ApkError::ChecksumMismatch { .. })
        ));
        // Under None the checksum is not consulted at all — whatever
        // happens next is a structural parse outcome, never a mismatch.
        assert!(!matches!(
            Dex::decode_bytes_with(Bytes::from(bad), VerifyPreset::None),
            Err(ApkError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn lookup_table_probe_matches_linear_scan() {
        let dex = sample_dex();
        assert!(dex.has_lookup_table());
        for t in dex.type_ids() {
            let name = dex.type_name(t).to_owned();
            let scan = dex.type_ids().find(|&u| dex.type_name(u) == name);
            assert_eq!(dex.type_by_name(&name), scan, "{name}");
        }
        assert_eq!(dex.type_by_name("missing/Class"), None);
        // The stored table survives the wire roundtrip and probes the same.
        let back = Dex::decode_bytes(dex.encode()).unwrap();
        assert!(back.has_lookup_table());
        assert!(!back.lookup_table_rebuilt());
        for t in back.type_ids() {
            let name = back.type_name(t).to_owned();
            assert_eq!(back.type_by_name(&name), Some(t));
        }
    }

    /// The sample dex encoded with the lookup-table flag cleared — the
    /// blob shape the `use_lut = false` path produces.
    fn lutless_blob() -> Bytes {
        let mut dex = sample_dex();
        dex.discard_lookup_table();
        dex.encode()
    }

    #[test]
    fn lazy_probe_table_builds_without_wire_section() {
        // A lut-less blob decodes under both decoders; the first name
        // lookup builds the fallback probe table once.
        let blob = lutless_blob();
        let dex = Dex::decode_bytes(blob.clone()).unwrap();
        assert!(!dex.has_lookup_table());
        assert!(!dex.lookup_table_rebuilt());
        assert_eq!(dex, sample_dex());
        assert_eq!(dex, oracle::decode(&blob).unwrap());
        let webview = dex.type_by_name("android/webkit/WebView");
        assert!(webview.is_some());
        assert!(dex.lookup_table_rebuilt());
        assert_eq!(dex.type_by_name("android/webkit/WebView"), webview);
        assert_eq!(dex.type_by_name("com/x/Missing"), None);
    }

    #[test]
    fn damaged_lookup_table_rejected_at_all() {
        let mut dex = sample_dex();
        let type_count = dex.type_count() as u32;
        {
            let slots = dex.lut_slots_mut().unwrap();
            let i = slots.iter().position(|&v| v != 0).unwrap();
            // In-range but wrong slot value: caught by the canonical
            // rebuild compare, not the per-slot bounds check.
            slots[i] = (slots[i] % type_count) + 1;
        }
        let blob = dex.encode(); // restamps the checksum over the bad table
        match Dex::decode_bytes(blob.clone()) {
            Err(ApkError::Invalid("lookup table mismatch"))
            | Err(ApkError::IndexOutOfRange { .. }) => {}
            other => panic!("damaged table accepted: {other:?}"),
        }
        // The trusted preset takes the stored table at face value.
        assert!(Dex::decode_bytes_with(blob, VerifyPreset::None).is_ok());
    }

    #[test]
    fn absent_lookup_table_flag_roundtrips() {
        // A body with flag 0 (no table) decodes and re-encodes as-is.
        let lutless = lutless_blob();
        let back = Dex::decode_bytes(lutless.clone()).unwrap();
        assert!(!back.has_lookup_table());
        assert_eq!(&back.encode()[..], &lutless[..]);
        // And the sample's stored table re-encodes verbatim (canonicality).
        let blob = sample_dex().encode();
        assert_eq!(
            &Dex::decode_bytes(blob.clone()).unwrap().encode()[..],
            &blob[..]
        );
    }

    #[test]
    fn oversized_invoke_arg_count_rejected() {
        let mut b = DexBuilder::new();
        let m = b.intern_method("com/x/A", "f", "()V");
        let callee = b.intern_method("com/x/A", "g", "()V");
        b.define_class(
            "com/x/A",
            None,
            ClassFlags::default(),
            vec![MethodDef {
                method: m,
                public: true,
                static_: false,
                registers: 300,
                code: vec![Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: (0..300).map(Reg).collect(),
                }],
            }],
        )
        .unwrap();
        let bytes = b.build().encode();
        assert!(matches!(
            Dex::decode(&bytes),
            Err(ApkError::Invalid("invoke argument count exceeds 255"))
        ));
    }
}
