//! The one flat-binary codec. The artifact store ([`crate::store`]) and
//! the edge wire protocol ([`crate::edge::proto`]) both encode and decode
//! through it, so they share one set of rules:
//!
//! - scalars are little-endian; `f32`/`f64` travel as their IEEE bit
//!   patterns, so NaN payloads and `-0.0` round-trip bit-exactly; a
//!   `usize` travels as a `u64` and is range-checked back into the host
//!   word;
//! - a string or list carries a `u32` element count, validated against
//!   the bytes actually remaining before anything is allocated;
//! - bulk slices are one `memcpy` on little-endian hosts (element-wise
//!   elsewhere, same bytes either way);
//! - a sealed buffer ends in a `u64` [`checksum`] over every preceding
//!   byte, and the reader verifies it before anything is parsed.
//!
//! Decoding never panics: an overrun, a lying count or a trailing byte is
//! an `Err(String)` naming the first violation. The store maps it to
//! [`GrainError::StoreCorrupt`](crate::GrainError::StoreCorrupt), the edge
//! to [`FrameError::Protocol`](crate::edge::proto::FrameError::Protocol).

use std::borrow::Cow;
use std::mem::size_of;

/// A decode failure: the first violation, in words.
pub(crate) type DecResult<T> = Result<T, String>;

/// A fixed-width number the cursors move.
///
/// # Safety
///
/// Implementors have no padding, accept every bit pattern, and lay out
/// in memory as `to_le_bytes` on little-endian hosts — what makes the
/// bulk `memcpy` paths of [`Enc::slice`] and [`Dec::vec`] sound.
pub(crate) unsafe trait Scalar: Copy {
    /// Appends `self` little-endian.
    fn put(self, buf: &mut Vec<u8>);
    /// Reads one value from exactly `size_of::<Self>()` bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! scalar {
    ($($t:ty),*) => {$(
        // Safety: a primitive integer or float.
        unsafe impl Scalar for $t {
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("scalar width"))
            }
        }
    )*};
}
scalar!(u8, u16, u32, u64, f32, f64);

/// Append-only little-endian writer.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        v.put(&mut self.buf);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        v.put(&mut self.buf);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        v.put(&mut self.buf);
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub(crate) fn f32(&mut self, v: f32) {
        v.put(&mut self.buf);
    }
    pub(crate) fn f64(&mut self, v: f64) {
        v.put(&mut self.buf);
    }

    /// A string or list length. Counts are `u32`; a longer list is a
    /// caller bug, not an input error.
    pub(crate) fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("list beyond u32 length"));
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// Bulk slice with no count (the reader knows the length from a
    /// header): one memcpy on little-endian targets.
    pub(crate) fn slice<T: Scalar>(&mut self, vs: &[T]) {
        self.bytes(&le_bytes(vs));
    }

    /// `&[usize]` as `u64` words, whatever the host word size.
    pub(crate) fn usize_slice(&mut self, vs: &[usize]) {
        self.bytes(&usize_le_bytes(vs));
    }

    /// A counted list: `u32` count, then the bulk slice.
    pub(crate) fn list<T: Scalar>(&mut self, vs: &[T]) {
        self.count(vs.len());
        self.slice(vs);
    }

    /// A counted `usize` list (see [`Enc::usize_slice`]).
    pub(crate) fn usize_list(&mut self, vs: &[usize]) {
        self.count(vs.len());
        self.usize_slice(vs);
    }

    /// The bytes written so far, unsealed.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends the checksum of every byte written so far and returns the
    /// sealed buffer.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Bounds-checked reader. Every read past the end is an error, and
/// [`Dec::finish`] rejects trailing bytes (the exact-length contract).
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(format!(
                "overrun: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get<T: Scalar>(&mut self) -> DecResult<T> {
        Ok(T::get(self.take(size_of::<T>())?))
    }
    pub(crate) fn u8(&mut self) -> DecResult<u8> {
        self.get()
    }
    pub(crate) fn u16(&mut self) -> DecResult<u16> {
        self.get()
    }
    pub(crate) fn u32(&mut self) -> DecResult<u32> {
        self.get()
    }
    pub(crate) fn u64(&mut self) -> DecResult<u64> {
        self.get()
    }
    pub(crate) fn f32(&mut self) -> DecResult<f32> {
        self.get()
    }
    pub(crate) fn f64(&mut self) -> DecResult<f64> {
        self.get()
    }

    /// A `u64` that must fit the host `usize`.
    pub(crate) fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("u64 {v} does not fit usize"))
    }

    /// A string or list length, validated against the bytes remaining so
    /// a lying prefix cannot reserve unbounded memory. `elem_size` is the
    /// smallest encoding of one element.
    pub(crate) fn count(&mut self, elem_size: usize) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(format!(
                "length prefix {n} (×{elem_size}B) exceeds the {} bytes remaining",
                self.remaining()
            ));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> DecResult<String> {
        let len = self.count(1)?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    /// `n` bulk elements with no count: one memcpy on little-endian
    /// targets.
    pub(crate) fn vec<T: Scalar>(&mut self, n: usize) -> DecResult<Vec<T>> {
        let len = n
            .checked_mul(size_of::<T>())
            .ok_or_else(|| format!("{n} elements overflow the address space"))?;
        let bytes = self.take(len)?;
        #[cfg(target_endian = "little")]
        {
            let mut out = Vec::<T>::with_capacity(n);
            // Safety: the source holds exactly n elements' bytes, the
            // destination has capacity for n, and every bit pattern is a
            // valid `Scalar`.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), len);
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        Ok(bytes.chunks_exact(size_of::<T>()).map(T::get).collect())
    }

    /// `n` `u64` words back into host `usize`s, each range-checked.
    pub(crate) fn usize_vec(&mut self, n: usize) -> DecResult<Vec<usize>> {
        self.vec::<u64>(n)?
            .into_iter()
            .map(|v| usize::try_from(v).map_err(|_| format!("u64 {v} does not fit usize")))
            .collect()
    }

    /// A counted list (see [`Enc::list`]).
    pub(crate) fn list<T: Scalar>(&mut self) -> DecResult<Vec<T>> {
        let n = self.count(size_of::<T>())?;
        self.vec(n)
    }

    /// A counted `usize` list (see [`Enc::usize_list`]).
    pub(crate) fn usize_list(&mut self) -> DecResult<Vec<usize>> {
        let n = self.count(8)?;
        self.usize_vec(n)
    }

    pub(crate) fn finish(&self) -> DecResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the body")),
        }
    }
}

/// Verifies a sealed buffer's trailing checksum and returns the body
/// before it.
pub(crate) fn unseal(sealed: &[u8]) -> DecResult<&[u8]> {
    let Some(split) = sealed.len().checked_sub(8) else {
        return Err(format!("{} bytes cannot hold a checksum", sealed.len()));
    };
    let (body, sum) = sealed.split_at(split);
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8-byte trailer")) {
        return Err("checksum mismatch".to_string());
    }
    Ok(body)
}

/// The checksum a sealed buffer ends in: 64-bit FNV-1a over 8-byte words
/// with a final avalanche, the length folded in first so a truncation to
/// a word boundary still changes the sum. Word-at-a-time, so
/// multi-megabyte artifacts cost one multiply per 8 bytes.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

/// [`checksum`] fed piece by piece: the sum over the concatenation of
/// every piece written, whose total length is fixed up front. A piece
/// that ends mid-word leaves its tail in `carry` until the next piece
/// completes the 8-byte word, so the words [`Fnv64`] sees do not depend
/// on where the pieces split.
pub(crate) struct Checksum {
    h: Fnv64,
    carry: [u8; 8],
    held: usize,
}

impl Checksum {
    pub(crate) fn new(len: usize) -> Self {
        let mut h = Fnv64::new();
        h.write_u64(len as u64);
        Self {
            h,
            carry: [0; 8],
            held: 0,
        }
    }

    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        if self.held > 0 {
            let take = (8 - self.held).min(bytes.len());
            self.carry[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < 8 {
                return;
            }
            self.h.write(&self.carry);
            self.held = 0;
        }
        let (words, tail) = bytes.split_at(bytes.len() / 8 * 8);
        self.h.write(words);
        self.carry[..tail.len()].copy_from_slice(tail);
        self.held = tail.len();
    }

    pub(crate) fn finish(mut self) -> u64 {
        self.h.write(&self.carry[..self.held]);
        self.h.finish()
    }
}

/// `vs` as the little-endian bytes [`Enc::slice`] writes: borrowed on
/// little-endian hosts, encoded into a fresh buffer elsewhere.
pub(crate) fn le_bytes<T: Scalar>(vs: &[T]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // Safety: `Scalar` types have no padding and any alignment
        // satisfies u8.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut buf = Vec::with_capacity(std::mem::size_of_val(vs));
        for &v in vs {
            v.put(&mut buf);
        }
        Cow::Owned(buf)
    }
}

/// `&[usize]` as the `u64` words [`Enc::usize_slice`] writes (see
/// [`le_bytes`]).
pub(crate) fn usize_le_bytes(vs: &[usize]) -> Cow<'_, [u8]> {
    #[cfg(target_pointer_width = "64")]
    {
        // Safety: usize and u64 share size and alignment here.
        le_bytes(unsafe { std::slice::from_raw_parts(vs.as_ptr().cast::<u64>(), vs.len()) })
    }
    #[cfg(not(target_pointer_width = "64"))]
    Cow::Owned(vs.iter().flat_map(|&v| (v as u64).to_le_bytes()).collect())
}

/// Incremental 64-bit FNV-1a hasher (word-at-a-time over bulk slices)
/// with a final avalanche. The one hash behind checksums, store file
/// names and corpus lineage fingerprints; its values are part of the
/// on-disk format.
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        for &b in chunks.remainder() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        // Final avalanche so short inputs still spread across all bits.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F32S: [f32; 6] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::MIN_POSITIVE / 2.0,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffa0_0001),
    ];
    const F64S: [f64; 5] = [
        -0.0,
        0.1 + 0.2,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::from_bits(0xfff0_0000_0000_0002),
    ];

    /// One of everything the codec writes, in a fixed order.
    fn encode_all() -> Enc {
        let mut e = Enc::default();
        e.u8(0xab);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.usize(usize::MAX);
        for &x in &F32S {
            e.f32(x);
        }
        for &x in &F64S {
            e.f64(x);
        }
        e.str("");
        e.str("grain · θ");
        e.slice::<u32>(&[]);
        e.slice(&[1u32, u32::MAX]);
        e.slice(&F32S);
        e.usize_slice(&[0, 7, usize::MAX]);
        e.list::<u64>(&[]);
        e.list(&F64S);
        e.list(&[3u16, 4]);
        e.usize_list(&[]);
        e.usize_list(&[9, 10]);
        e
    }

    /// Decodes [`encode_all`]'s sequence, asserting every value
    /// bit-exactly, and requires the exact length.
    fn decode_all(buf: &[u8]) -> DecResult<()> {
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut d = Dec::new(buf);
        assert_eq!(d.u8()?, 0xab);
        assert_eq!(d.u16()?, 0xbeef);
        assert_eq!(d.u32()?, 0xdead_beef);
        assert_eq!(d.u64()?, u64::MAX - 1);
        assert_eq!(d.usize()?, usize::MAX);
        for &x in &F32S {
            assert_eq!(d.f32()?.to_bits(), x.to_bits());
        }
        for &x in &F64S {
            assert_eq!(d.f64()?.to_bits(), x.to_bits());
        }
        assert_eq!(d.str()?, "");
        assert_eq!(d.str()?, "grain · θ");
        assert!(d.vec::<u32>(0)?.is_empty());
        assert_eq!(d.vec::<u32>(2)?, [1, u32::MAX]);
        assert_eq!(bits32(&d.vec::<f32>(F32S.len())?), bits32(&F32S));
        assert_eq!(d.usize_vec(3)?, [0, 7, usize::MAX]);
        assert!(d.list::<u64>()?.is_empty());
        assert_eq!(bits64(&d.list::<f64>()?), bits64(&F64S));
        assert_eq!(d.list::<u16>()?, [3, 4]);
        assert!(d.usize_list()?.is_empty());
        assert_eq!(d.usize_list()?, [9, 10]);
        d.finish()
    }

    #[test]
    fn every_primitive_and_slice_round_trips_bit_exactly() {
        decode_all(&encode_all().buf).unwrap();
    }

    #[test]
    fn slices_are_their_elements_little_endian() {
        let mut bulk = Enc::default();
        bulk.slice(&[0x0102_0304u32, 5]);
        bulk.usize_slice(&[6]);
        let mut one_by_one = Enc::default();
        one_by_one.u32(0x0102_0304);
        one_by_one.u32(5);
        one_by_one.u64(6);
        assert_eq!(bulk.buf, one_by_one.buf);
        assert_eq!(&bulk.buf[..4], [4, 3, 2, 1]);
    }

    #[test]
    fn every_strict_prefix_and_one_trailing_byte_are_errors() {
        let buf = encode_all().buf;
        for cut in 0..buf.len() {
            assert!(decode_all(&buf[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_all(&long).unwrap_err().contains("trailing"));

        let sealed = encode_all().seal();
        assert!(decode_all(unseal(&sealed).unwrap()).is_ok());
        for cut in 0..sealed.len() {
            assert!(
                unseal(&sealed[..cut]).is_err(),
                "sealed prefix of {cut} bytes"
            );
        }
        let mut long = sealed.clone();
        long.push(0);
        assert!(unseal(&long).is_err());
    }

    #[test]
    fn a_lying_count_is_refused_before_allocating() {
        let mut e = Enc::default();
        e.u32(u32::MAX);
        e.u64(1);
        let err = Dec::new(&e.buf).list::<f64>().unwrap_err();
        assert!(err.contains("length prefix"), "{err}");
        let err = Dec::new(&e.buf).str().unwrap_err();
        assert!(err.contains("length prefix"), "{err}");
        assert!(Dec::new(&[]).vec::<u64>(usize::MAX).is_err());
        assert!(Dec::new(&[]).usize_vec(usize::MAX / 4).is_err());
    }

    #[test]
    fn streamed_checksum_equals_checksum_over_any_split() {
        let bytes: Vec<u8> = (0..517u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let streamed = |bytes: &[u8], cuts: &[usize]| {
            let mut sum = Checksum::new(bytes.len());
            let mut at = 0;
            for &cut in cuts {
                sum.write(&bytes[at..cut]);
                at = cut;
            }
            sum.write(&bytes[at..]);
            sum.finish()
        };
        let want = checksum(&bytes);
        assert_eq!(streamed(&bytes, &[]), want, "one piece");
        // Empty pieces, a 3-byte piece, then pieces straddling the word
        // boundaries at 8 and 16.
        assert_eq!(streamed(&bytes, &[0, 0, 3, 3, 13, 21, 21]), want);
        for piece in 1..=7 {
            let cuts: Vec<usize> = (piece..bytes.len()).step_by(piece).collect();
            assert_eq!(streamed(&bytes, &cuts), want, "{piece}-byte pieces");
        }
        // Inputs shorter than a word, fed a byte at a time.
        for len in 0..20 {
            let cuts: Vec<usize> = (1..len).collect();
            assert_eq!(
                streamed(&bytes[..len], &cuts),
                checksum(&bytes[..len]),
                "{len} bytes"
            );
        }
        // Random splits, with empty pieces (xorshift64).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            let mut cuts = Vec::new();
            let mut at = 0;
            loop {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                at += (state % 12) as usize;
                if at > bytes.len() {
                    break;
                }
                cuts.push(at);
            }
            assert_eq!(streamed(&bytes, &cuts), want, "cuts {cuts:?}");
        }
    }

    #[test]
    fn unseal_rejects_any_flipped_bit() {
        let sealed = encode_all().seal();
        for i in [0, sealed.len() / 2, sealed.len() - 9, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[i] ^= 0x10;
            assert_eq!(unseal(&bad).unwrap_err(), "checksum mismatch", "byte {i}");
        }
    }
}
