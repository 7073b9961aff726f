//! Sparse paged memory with a shadow taintedness bit per byte.
//!
//! Pages are reference-counted ([`Arc`]) so a whole address space can be
//! forked in O(pages) pointer copies: [`TaintedMemory::fork`] shares every
//! page between parent and child, and the first write to a shared page
//! copies it (copy-on-write). Read paths never unshare.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ptaint_isa::PAGE_SIZE;

use crate::WordTaint;

const PAGE_BYTES: usize = PAGE_SIZE as usize;
const TAINT_WORDS: usize = PAGE_BYTES / 64;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// What went wrong.
    pub kind: MemFaultKind,
    /// The offending virtual address.
    pub addr: u32,
}

/// The kind of a [`MemFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// A word or halfword access to an address that is not a multiple of the
    /// access width.
    Unaligned,
    /// An access inside the guard page at address zero. Dereferencing wild
    /// pointers (e.g. NULL) crashes realistically instead of silently reading
    /// zeroes.
    NullDeref,
    /// A multi-byte range that runs past the top of the 32-bit address
    /// space; `addr` is the range start.
    Wraparound,
    /// A bulk kernel copy out of a page that was never materialized —
    /// `EFAULT` for an unmapped page; `addr` is the page's first byte (or
    /// the range start, when that lies inside it).
    NotResident,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemFaultKind::Unaligned => write!(f, "unaligned memory access at {:#010x}", self.addr),
            MemFaultKind::NullDeref => {
                write!(f, "null-page dereference at {:#010x}", self.addr)
            }
            MemFaultKind::Wraparound => {
                write!(f, "range at {:#010x} wraps past 0xffffffff", self.addr)
            }
            MemFaultKind::NotResident => {
                write!(f, "non-resident page at {:#010x}", self.addr)
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// One 4 KiB page: data bytes plus a taint bit per byte.
#[derive(Clone)]
struct Page {
    data: Box<[u8; PAGE_BYTES]>,
    taint: Box<[u64; TAINT_WORDS]>,
}

impl Page {
    fn new() -> Page {
        Page {
            data: Box::new([0; PAGE_BYTES]),
            taint: Box::new([0; TAINT_WORDS]),
        }
    }

    fn taint_bit(&self, off: usize) -> bool {
        self.taint[off / 64] & (1 << (off % 64)) != 0
    }

    fn set_taint_bit(&mut self, off: usize, tainted: bool) {
        let (word, bit) = (off / 64, 1u64 << (off % 64));
        if tainted {
            self.taint[word] |= bit;
        } else {
            self.taint[word] &= !bit;
        }
    }

    fn tainted_bytes(&self) -> u64 {
        self.taint.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// A sparse, little-endian, byte-addressable memory in which **every byte has
/// a taintedness bit**, implementing the extended memory model of paper §4.1.
///
/// Pages are allocated on first touch. Word and halfword accesses must be
/// naturally aligned; accesses to the zero page fault (see
/// [`MemFaultKind::NullDeref`]).
///
/// ```
/// use ptaint_mem::{TaintedMemory, WordTaint};
///
/// let mut mem = TaintedMemory::new();
/// mem.write_u32(0x1000_0000, 0xdead_beef, WordTaint::from_bits(0b0010))?;
/// let (v, t) = mem.read_u32(0x1000_0000)?;
/// assert_eq!(v, 0xdead_beef);
/// assert!(t.byte(1) && !t.byte(0));
/// # Ok::<(), ptaint_mem::MemFault>(())
/// ```
#[derive(Default)]
pub struct TaintedMemory {
    pages: HashMap<u32, Arc<Page>>,
    null_guard: bool,
    tainted_writes: u64,
    cow_faults: u64,
}

impl fmt::Debug for TaintedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaintedMemory")
            .field("pages", &self.pages.len())
            .field("null_guard", &self.null_guard)
            .field("tainted_writes", &self.tainted_writes)
            .field("cow_faults", &self.cow_faults)
            .finish()
    }
}

impl TaintedMemory {
    /// Creates an empty memory with the null-page guard enabled.
    #[must_use]
    pub fn new() -> TaintedMemory {
        TaintedMemory {
            pages: HashMap::new(),
            null_guard: true,
            tainted_writes: 0,
            cow_faults: 0,
        }
    }

    /// Creates an empty memory without the null-page guard (every address,
    /// including page zero, is readable/writable). Useful for raw unit tests.
    #[must_use]
    pub fn without_null_guard() -> TaintedMemory {
        TaintedMemory {
            pages: HashMap::new(),
            null_guard: false,
            tainted_writes: 0,
            cow_faults: 0,
        }
    }

    /// A copy-on-write fork of this memory: the child shares every page
    /// (data *and* shadow taint) with the parent by reference count, so the
    /// fork costs O(pages) pointer copies instead of O(bytes). The first
    /// write either side makes to a shared page unshares just that page (a
    /// "COW fault", counted per instance by
    /// [`TaintedMemory::cow_fault_count`]). The cumulative
    /// [`TaintedMemory::tainted_write_count`] is inherited so a forked run
    /// reports the same traffic statistics as a fresh one; the child's COW
    /// fault counter starts at zero.
    #[must_use]
    pub fn fork(&self) -> TaintedMemory {
        TaintedMemory {
            pages: self.pages.clone(),
            null_guard: self.null_guard,
            tainted_writes: self.tainted_writes,
            cow_faults: 0,
        }
    }

    /// Number of materialized pages currently shared with at least one fork
    /// (reference count above one).
    #[must_use]
    pub fn pages_shared(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Number of writes that had to unshare a page since this instance was
    /// created or forked.
    #[must_use]
    pub fn cow_fault_count(&self) -> u64 {
        self.cow_faults
    }

    fn check(&self, addr: u32, align: u32) -> Result<(), MemFault> {
        if self.null_guard && addr < PAGE_SIZE {
            return Err(MemFault {
                kind: MemFaultKind::NullDeref,
                addr,
            });
        }
        if align > 1 && !addr.is_multiple_of(align) {
            return Err(MemFault {
                kind: MemFaultKind::Unaligned,
                addr,
            });
        }
        Ok(())
    }

    /// Faults when `[addr, addr + len)` runs past the top of the address
    /// space. A range ending exactly at `0xffff_ffff` is in range.
    pub(crate) fn check_range(addr: u32, len: u32) -> Result<(), MemFault> {
        if u64::from(addr) + u64::from(len) > 1 << 32 {
            return Err(MemFault {
                kind: MemFaultKind::Wraparound,
                addr,
            });
        }
        Ok(())
    }

    fn page(&mut self, addr: u32) -> &mut Page {
        let arc = self
            .pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Arc::new(Page::new()));
        if Arc::strong_count(arc) > 1 {
            self.cow_faults += 1;
        }
        Arc::make_mut(arc)
    }

    /// Reads one byte and its taint bit.
    ///
    /// # Errors
    ///
    /// Faults on a null-page access.
    pub fn read_u8(&self, addr: u32) -> Result<(u8, bool), MemFault> {
        self.check(addr, 1)?;
        let off = (addr % PAGE_SIZE) as usize;
        Ok(match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => (p.data[off], p.taint_bit(off)),
            None => (0, false),
        })
    }

    /// Writes one byte and its taint bit.
    ///
    /// # Errors
    ///
    /// Faults on a null-page access.
    pub fn write_u8(&mut self, addr: u32, value: u8, tainted: bool) -> Result<(), MemFault> {
        self.check(addr, 1)?;
        if tainted {
            self.tainted_writes += 1;
        }
        let off = (addr % PAGE_SIZE) as usize;
        let page = self.page(addr);
        page.data[off] = value;
        page.set_taint_bit(off, tainted);
        Ok(())
    }

    /// Reads a little-endian halfword; taint bits land in the low half of the
    /// returned [`WordTaint`].
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 2-aligned or inside the null page.
    pub fn read_u16(&self, addr: u32) -> Result<(u16, WordTaint), MemFault> {
        self.check(addr, 2)?;
        let (b0, t0) = self.read_u8(addr)?;
        let (b1, t1) = self.read_u8(addr + 1)?;
        let taint = WordTaint::CLEAN.with_byte(0, t0).with_byte(1, t1);
        Ok((u16::from_le_bytes([b0, b1]), taint))
    }

    /// Writes a little-endian halfword with the low two taint bits of `taint`.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 2-aligned or inside the null page.
    pub fn write_u16(&mut self, addr: u32, value: u16, taint: WordTaint) -> Result<(), MemFault> {
        self.check(addr, 2)?;
        let [b0, b1] = value.to_le_bytes();
        self.write_u8(addr, b0, taint.byte(0))?;
        self.write_u8(addr + 1, b1, taint.byte(1))
    }

    /// Reads a little-endian word together with its four taint bits.
    ///
    /// This is the word-granular fast path: one page lookup, one 4-byte
    /// slice, and one shadow-word extraction. A 4-aligned word's taint bits
    /// can never straddle a shadow `u64` (`64 % 4 == 0`), so a single shift
    /// recovers all four.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 4-aligned or inside the null page.
    pub fn read_u32(&self, addr: u32) -> Result<(u32, WordTaint), MemFault> {
        self.check(addr, 4)?;
        let off = (addr % PAGE_SIZE) as usize;
        Ok(match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => {
                let bytes: [u8; 4] = p.data[off..off + 4].try_into().unwrap();
                let bits = ((p.taint[off / 64] >> (off % 64)) & 0xF) as u8;
                (u32::from_le_bytes(bytes), WordTaint::from_bits(bits))
            }
            None => (0, WordTaint::CLEAN),
        })
    }

    /// Writes a little-endian word together with its four taint bits.
    ///
    /// Like [`TaintedMemory::read_u32`], this resolves the page once and
    /// patches the four taint bits with a single masked shadow-word update.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 4-aligned or inside the null page.
    pub fn write_u32(&mut self, addr: u32, value: u32, taint: WordTaint) -> Result<(), MemFault> {
        self.check(addr, 4)?;
        self.tainted_writes += u64::from(taint.bits().count_ones());
        let off = (addr % PAGE_SIZE) as usize;
        let page = self.page(addr);
        page.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
        let (word, shift) = (off / 64, off % 64);
        page.taint[word] =
            (page.taint[word] & !(0xF_u64 << shift)) | (u64::from(taint.bits()) << shift);
        Ok(())
    }

    /// Copies `data` into memory, marking every written byte with `tainted`.
    ///
    /// This is the primitive the virtual OS uses when returning data from
    /// `SYS_READ`/`SYS_RECV` into a user buffer: data from an external source
    /// arrives with `tainted == true` (paper §4.4).
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page or wraps.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8], tainted: bool) -> Result<(), MemFault> {
        Self::check_range(addr, u32::try_from(data.len()).unwrap_or(u32::MAX))?;
        // One page lookup (and one null-guard check — the guard is
        // page-granular) per crossed page, not per byte. A fault mid-range
        // still leaves every byte of the preceding pages written, exactly
        // like the old byte-at-a-time loop.
        let mut i = 0;
        while i < data.len() {
            let a = addr.wrapping_add(i as u32);
            self.check(a, 1)?;
            let off = (a % PAGE_SIZE) as usize;
            let run = (data.len() - i).min(PAGE_BYTES - off);
            if tainted {
                self.tainted_writes += run as u64;
            }
            let page = self.page(a);
            page.data[off..off + run].copy_from_slice(&data[i..i + run]);
            for o in off..off + run {
                page.set_taint_bit(o, tainted);
            }
            i += run;
        }
        Ok(())
    }

    /// Reads `len` bytes (data only).
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page or wraps.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        Self::check_range(addr, len)?;
        (0..len)
            .map(|i| self.read_u8(addr + i).map(|(b, _)| b))
            .collect()
    }

    /// Appends the bytes of `[addr, addr + len)` to `out`, one slice copy
    /// per page — the kernel's user→host copy for `write`/`send`. Every
    /// page the range touches must be resident (written at least once):
    /// like a kernel meeting an unmapped page, the copy faults
    /// ([`MemFaultKind::NotResident`]) and leaves `out` untouched, so a
    /// huge length over a small buffer costs no host memory.
    ///
    /// # Errors
    ///
    /// Faults when the range wraps, touches the null page, or touches a
    /// page that is not resident.
    pub fn append_resident(&self, addr: u32, len: u32, out: &mut Vec<u8>) -> Result<(), MemFault> {
        Self::check_range(addr, len)?;
        // Page-sized chunks of the range: (start, offset in page, length).
        let chunks = || {
            let mut i = 0;
            std::iter::from_fn(move || {
                (i < len).then(|| {
                    let a = addr + i;
                    let off = a % PAGE_SIZE;
                    let run = (len - i).min(PAGE_SIZE - off);
                    i += run;
                    (a, off as usize, run as usize)
                })
            })
        };
        for (a, _, _) in chunks() {
            self.check(a, 1)?;
            if !self.pages.contains_key(&(a / PAGE_SIZE)) {
                return Err(MemFault {
                    kind: MemFaultKind::NotResident,
                    addr: a,
                });
            }
        }
        out.reserve(len as usize);
        for (a, off, run) in chunks() {
            out.extend_from_slice(&self.pages[&(a / PAGE_SIZE)].data[off..off + run]);
        }
        Ok(())
    }

    /// Reads `len` taint bits starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page or wraps.
    pub fn read_taint(&self, addr: u32, len: u32) -> Result<Vec<bool>, MemFault> {
        Self::check_range(addr, len)?;
        (0..len)
            .map(|i| self.read_u8(addr + i).map(|(_, t)| t))
            .collect()
    }

    /// Reads a NUL-terminated byte string of at most `max` bytes (terminator
    /// excluded).
    ///
    /// # Errors
    ///
    /// Faults when the scan touches the null page or runs past
    /// `0xffff_ffff`.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let a = addr.checked_add(i).ok_or(MemFault {
                kind: MemFaultKind::Wraparound,
                addr,
            })?;
            let (b, _) = self.read_u8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Marks every byte in `[addr, addr + len)` with `tainted` without
    /// touching the data.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page or wraps.
    pub fn set_taint_range(&mut self, addr: u32, len: u32, tainted: bool) -> Result<(), MemFault> {
        Self::check_range(addr, len)?;
        // Page lookup hoisted per crossed page, like `write_bytes`. The data
        // bytes are untouched; this flips shadow bits only.
        let mut i = 0;
        while i < len {
            let a = addr.wrapping_add(i);
            self.check(a, 1)?;
            let off = (a % PAGE_SIZE) as usize;
            let run = (len - i).min((PAGE_BYTES - off) as u32);
            let page = self.page(a);
            for o in off..off + run as usize {
                page.set_taint_bit(o, tainted);
            }
            i += run;
        }
        Ok(())
    }

    /// Maximal contiguous runs of tainted bytes, as `(base, len)` pairs in
    /// ascending address order.
    ///
    /// The scan visits materialized pages in sorted order (the underlying
    /// map is unordered), so the result is deterministic for a given memory
    /// state — the fault-injection harness relies on that to pick corruption
    /// targets reproducibly from a seed.
    #[must_use]
    pub fn tainted_ranges(&self) -> Vec<(u32, u32)> {
        let mut pages: Vec<u32> = self
            .pages
            .iter()
            .filter(|(_, p)| p.tainted_bytes() > 0)
            .map(|(&i, _)| i)
            .collect();
        pages.sort_unstable();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for pi in pages {
            let page = &self.pages[&pi];
            let base = pi * PAGE_SIZE;
            for (wi, &word) in page.taint.iter().enumerate() {
                if word == 0 {
                    continue;
                }
                for bit in 0..64 {
                    if word & (1 << bit) == 0 {
                        continue;
                    }
                    let addr = base + (wi * 64 + bit) as u32;
                    match ranges.last_mut() {
                        Some((start, len)) if start.wrapping_add(*len) == addr => *len += 1,
                        _ => ranges.push((addr, 1)),
                    }
                }
            }
        }
        ranges
    }

    /// Number of pages currently materialized.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total number of tainted bytes across all pages — the quantity behind
    /// the paper's space-overhead discussion (§5.4).
    #[must_use]
    pub fn tainted_byte_count(&self) -> u64 {
        self.pages.values().map(|p| p.tainted_bytes()).sum()
    }

    /// Cumulative count of byte writes that carried taint, over the whole
    /// run. Unlike [`TaintedMemory::tainted_byte_count`] this never
    /// decreases when bytes are overwritten clean, so it measures taint
    /// *traffic* rather than taint *residency*.
    #[must_use]
    pub fn tainted_write_count(&self) -> u64 {
        self.tainted_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_past_the_top_of_memory_fault() {
        let mut mem = TaintedMemory::new();
        let wrap = MemFault {
            kind: MemFaultKind::Wraparound,
            addr: 0xffff_fff0,
        };
        assert_eq!(mem.read_bytes(0xffff_fff0, 32), Err(wrap));
        assert_eq!(mem.read_taint(0xffff_fff0, 32), Err(wrap));
        assert_eq!(mem.set_taint_range(0xffff_fff0, 32, true), Err(wrap));
        assert_eq!(mem.write_bytes(0xffff_fff0, &[1; 32], true), Err(wrap));
        assert_eq!(
            mem.append_resident(0xffff_fff0, 32, &mut Vec::new()),
            Err(wrap)
        );
        assert_eq!(mem.page_count(), 0, "nothing written before the fault");
        // A range ending exactly at 0xffffffff is in range.
        mem.write_bytes(0xffff_fff0, &[7; 16], false).unwrap();
        assert_eq!(mem.read_bytes(0xffff_fff0, 16).unwrap(), [7; 16]);
        // An unterminated string scan runs off the top and faults...
        assert_eq!(mem.read_cstr(0xffff_fff0, 32), Err(wrap));
        // ...while a string that terminates before the top is read normally.
        mem.write_u8(0xffff_fff4, 0, false).unwrap();
        assert_eq!(mem.read_cstr(0xffff_fff0, 64).unwrap(), [7; 4]);
    }

    #[test]
    fn append_resident_copies_only_materialized_pages() {
        let mut mem = TaintedMemory::new();
        let base = 0x1000_0000;
        mem.write_bytes(base + PAGE_SIZE - 2, b"abcd", true)
            .unwrap();
        let mut out = b"> ".to_vec();
        mem.append_resident(base + PAGE_SIZE - 2, 4, &mut out)
            .unwrap();
        assert_eq!(out, b"> abcd");
        // A range that runs on into a never-written page copies nothing.
        let fault = mem
            .append_resident(base + PAGE_SIZE - 2, 2 * PAGE_SIZE, &mut out)
            .unwrap_err();
        assert_eq!(fault.kind, MemFaultKind::NotResident);
        assert_eq!(fault.addr, base + 2 * PAGE_SIZE);
        assert_eq!(out, b"> abcd");
        // The null page faults as such.
        assert_eq!(
            mem.append_resident(0x10, 4, &mut out).unwrap_err().kind,
            MemFaultKind::NullDeref
        );
    }

    #[test]
    fn zero_initialized_and_untainted() {
        let mem = TaintedMemory::new();
        assert_eq!(mem.read_u8(0x1000).unwrap(), (0, false));
        assert_eq!(mem.read_u32(0x0040_0000).unwrap(), (0, WordTaint::CLEAN));
        assert_eq!(mem.page_count(), 0);
        assert_eq!(mem.tainted_byte_count(), 0);
    }

    #[test]
    fn byte_write_read_with_taint() {
        let mut mem = TaintedMemory::new();
        mem.write_u8(0x2000, 0xab, true).unwrap();
        assert_eq!(mem.read_u8(0x2000).unwrap(), (0xab, true));
        mem.write_u8(0x2000, 0xcd, false).unwrap();
        assert_eq!(mem.read_u8(0x2000).unwrap(), (0xcd, false));
        assert_eq!(mem.page_count(), 1);
    }

    #[test]
    fn word_is_little_endian() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x3000, &[0x61, 0x62, 0x63, 0x64], true)
            .unwrap();
        let (v, t) = mem.read_u32(0x3000).unwrap();
        assert_eq!(v, 0x6463_6261);
        assert_eq!(t, WordTaint::ALL);
    }

    #[test]
    fn per_byte_taint_granularity_in_words() {
        let mut mem = TaintedMemory::new();
        mem.write_u32(0x3000, 0x1122_3344, WordTaint::from_bits(0b0110))
            .unwrap();
        let (_, t) = mem.read_u32(0x3000).unwrap();
        assert_eq!(t.bits(), 0b0110);
        // Individual bytes see their own bit.
        assert!(!mem.read_u8(0x3000).unwrap().1);
        assert!(mem.read_u8(0x3001).unwrap().1);
        assert!(mem.read_u8(0x3002).unwrap().1);
        assert!(!mem.read_u8(0x3003).unwrap().1);
        assert_eq!(mem.tainted_byte_count(), 2);
    }

    #[test]
    fn word_fast_path_agrees_with_byte_path() {
        // Exercise words adjacent to every interesting boundary: the shadow
        // u64 seam (offset 64) and the page seam.
        let mut mem = TaintedMemory::new();
        for (i, addr) in [0x2038, 0x203c, 0x2040, 2 * PAGE_SIZE - 4, 2 * PAGE_SIZE]
            .into_iter()
            .enumerate()
        {
            let taint = WordTaint::from_bits(0b1010 >> (i % 2));
            mem.write_u32(addr, 0x0101_0101 * (i as u32 + 1), taint)
                .unwrap();
            let (word, wt) = mem.read_u32(addr).unwrap();
            assert_eq!(word, 0x0101_0101 * (i as u32 + 1));
            assert_eq!(wt, taint);
            for b in 0..4 {
                let (byte, bt) = mem.read_u8(addr + b).unwrap();
                assert_eq!(u32::from(byte), i as u32 + 1);
                assert_eq!(bt, taint.byte(b as usize), "byte {b} of {addr:#x}");
            }
        }
        // Word writes count taint traffic per tainted byte, like byte writes.
        let mut a = TaintedMemory::new();
        a.write_u32(0x3000, 0, WordTaint::from_bits(0b1011))
            .unwrap();
        let mut b = TaintedMemory::new();
        for i in 0..4u32 {
            b.write_u8(0x3000 + i, 0, 0b1011 & (1 << i) != 0).unwrap();
        }
        assert_eq!(a.tainted_write_count(), b.tainted_write_count());
    }

    #[test]
    fn halfword_roundtrip() {
        let mut mem = TaintedMemory::new();
        mem.write_u16(0x4000, 0xbeef, WordTaint::from_bits(0b01))
            .unwrap();
        let (v, t) = mem.read_u16(0x4000).unwrap();
        assert_eq!(v, 0xbeef);
        assert!(t.byte(0) && !t.byte(1));
    }

    #[test]
    fn unaligned_accesses_fault() {
        let mut mem = TaintedMemory::new();
        assert_eq!(
            mem.read_u32(0x1001).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        assert_eq!(
            mem.read_u16(0x1001).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        assert_eq!(
            mem.write_u32(0x1002, 0, WordTaint::CLEAN).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        // Byte accesses never require alignment.
        mem.write_u8(0x1001, 1, false).unwrap();
    }

    #[test]
    fn null_page_guard() {
        let mut mem = TaintedMemory::new();
        assert_eq!(mem.read_u8(0).unwrap_err().kind, MemFaultKind::NullDeref);
        assert_eq!(mem.read_u8(4095).unwrap_err().kind, MemFaultKind::NullDeref);
        assert_eq!(
            mem.write_u32(0, 1, WordTaint::CLEAN).unwrap_err().kind,
            MemFaultKind::NullDeref
        );
        mem.read_u8(4096).unwrap();

        let mut raw = TaintedMemory::without_null_guard();
        raw.write_u8(0, 7, true).unwrap();
        assert_eq!(raw.read_u8(0).unwrap(), (7, true));
    }

    #[test]
    fn cross_page_bulk_copy() {
        let mut mem = TaintedMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        let base = 2 * PAGE_SIZE - 128; // straddles a page boundary
        mem.write_bytes(base, &data, true).unwrap();
        assert_eq!(mem.read_bytes(base, 256).unwrap(), data);
        assert!(mem.read_taint(base, 256).unwrap().iter().all(|&t| t));
        assert_eq!(mem.page_count(), 2);
        assert_eq!(mem.tainted_byte_count(), 256);
    }

    #[test]
    fn cstr_reading() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x5000, b"hello\0world", false).unwrap();
        assert_eq!(mem.read_cstr(0x5000, 64).unwrap(), b"hello");
        // max cap respected when no terminator appears
        assert_eq!(mem.read_cstr(0x5000, 3).unwrap(), b"hel");
    }

    #[test]
    fn tainted_ranges_merge_across_shadow_and_page_seams() {
        let mut mem = TaintedMemory::new();
        assert!(mem.tainted_ranges().is_empty());
        // One run straddling a page boundary, one isolated byte, one run
        // straddling a shadow-u64 seam.
        mem.write_bytes(2 * PAGE_SIZE - 3, b"abcdef", true).unwrap();
        mem.write_u8(0x9000, 1, true).unwrap();
        mem.write_bytes(0x703e, b"xyzw", true).unwrap();
        assert_eq!(
            mem.tainted_ranges(),
            vec![(2 * PAGE_SIZE - 3, 6), (0x703e, 4), (0x9000, 1)]
        );
        // Clearing splits a run.
        mem.set_taint_range(0x7040, 1, false).unwrap();
        assert_eq!(
            mem.tainted_ranges(),
            vec![
                (2 * PAGE_SIZE - 3, 6),
                (0x703e, 2),
                (0x7041, 1),
                (0x9000, 1)
            ]
        );
    }

    #[test]
    fn fork_shares_pages_until_written() {
        let mut parent = TaintedMemory::new();
        parent.write_bytes(0x2000, b"seed", true).unwrap();
        parent.write_u8(0x5000, 9, false).unwrap();
        let mut child = parent.fork();
        assert_eq!(parent.pages_shared(), 2);
        assert_eq!(child.pages_shared(), 2);
        assert_eq!(child.read_bytes(0x2000, 4).unwrap(), b"seed");
        assert_eq!(child.tainted_write_count(), parent.tainted_write_count());
        assert_eq!(child.cow_fault_count(), 0);

        // Reads never unshare.
        let _ = child.read_u32(0x2000).unwrap();
        assert_eq!(child.pages_shared(), 2);

        // The first write to a shared page copies it; the sibling page stays
        // shared, and the parent never sees the child's write.
        child.write_u8(0x2000, b'X', false).unwrap();
        assert_eq!(child.cow_fault_count(), 1);
        assert_eq!(child.pages_shared(), 1);
        assert_eq!(parent.read_u8(0x2000).unwrap(), (b's', true));
        assert_eq!(child.read_u8(0x2000).unwrap(), (b'X', false));

        // A second write to the now-private page is not a COW fault.
        child.write_u8(0x2001, b'Y', false).unwrap();
        assert_eq!(child.cow_fault_count(), 1);
    }

    #[test]
    fn fork_isolates_taint_both_directions() {
        let mut parent = TaintedMemory::new();
        parent.write_bytes(0x3000, &[1, 2, 3, 4], false).unwrap();
        let mut a = parent.fork();
        let mut b = parent.fork();
        a.set_taint_range(0x3000, 2, true).unwrap();
        b.write_u32(0x3000, 0xdead_beef, WordTaint::ALL).unwrap();
        parent.write_u8(0x3003, 7, true).unwrap();
        // Three divergent views of the same origin page.
        assert_eq!(a.read_bytes(0x3000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(a.read_taint(0x3000, 4).unwrap(), [true, true, false, false]);
        assert_eq!(b.read_u32(0x3000).unwrap(), (0xdead_beef, WordTaint::ALL));
        assert_eq!(parent.read_u8(0x3003).unwrap(), (7, true));
        assert!(!parent.read_u8(0x3000).unwrap().1);
    }

    #[test]
    fn pages_materialized_after_fork_are_private() {
        let parent = TaintedMemory::new();
        let mut child = parent.fork();
        child.write_u8(0x8000, 1, true).unwrap();
        assert_eq!(child.cow_fault_count(), 0, "fresh page, nothing to copy");
        assert_eq!(parent.page_count(), 0);
        assert_eq!(parent.read_u8(0x8000).unwrap(), (0, false));
    }

    #[test]
    fn set_taint_range_preserves_data() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x6000, b"abcd", true).unwrap();
        mem.set_taint_range(0x6000, 4, false).unwrap();
        assert_eq!(mem.read_bytes(0x6000, 4).unwrap(), b"abcd");
        assert!(mem.read_taint(0x6000, 4).unwrap().iter().all(|&t| !t));
        mem.set_taint_range(0x6001, 2, true).unwrap();
        assert_eq!(
            mem.read_taint(0x6000, 4).unwrap(),
            vec![false, true, true, false]
        );
    }
}
