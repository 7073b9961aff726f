//! Per-page decode cache for the predecoded execution engine.
//!
//! On a miss the engine predecodes the straight-line block from the missing
//! PC to the end of its text page ([`DecodeCache::fill_block`]) and then
//! dispatches from the cache until the block is left or invalidated. A slot
//! holding `None` (never predecoded, or an undecodable word) is *not* an
//! error: the engine falls back to the authoritative fetch+decode path,
//! which reproduces the interpreter's exact faults. Coherence with
//! self-modifying code comes from the memory system's code-page watches:
//! the CPU drains dirty pages and calls [`DecodeCache::invalidate`] before
//! consulting the cache.

use std::collections::HashMap;

use ptaint_isa::{DecodedInsn, PAGE_SIZE};
use ptaint_mem::TaintedMemory;

/// Instruction slots per page (one per 4-aligned word).
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// FNV-1a hash of one filled slot's decoded form. XORed into the page
/// header checksum at fill time so the integrity sweep can recompute and
/// compare without touching authoritative memory.
fn slot_hash(slot: usize, d: &DecodedInsn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [slot as u32, d.instr.encode(), d.imm, d.target] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One predecoded text page.
struct DecodedPage {
    slots: Box<[Option<DecodedInsn>; SLOTS]>,
    /// Page header checksum: XOR of [`slot_hash`] over every filled slot,
    /// maintained incrementally by fills and resets. The periodic
    /// integrity sweep recomputes it from the slots and compares.
    sum: u64,
}

impl DecodedPage {
    fn new() -> DecodedPage {
        DecodedPage {
            slots: Box::new([None; SLOTS]),
            sum: 0,
        }
    }

    fn clear(&mut self) {
        self.slots.fill(None);
        self.sum = 0;
    }

    fn recompute_sum(&self) -> u64 {
        let mut sum = 0;
        for (slot, d) in self.slots.iter().enumerate() {
            if let Some(d) = d {
                sum ^= slot_hash(slot, d);
            }
        }
        sum
    }
}

/// Maps text pages to predecoded slot arrays.
///
/// A one-entry "last page" shortcut keeps the hot loop free of hash lookups
/// while execution stays within one page; invalidated slot arrays go on a
/// free list and are reused by later fills.
#[derive(Default)]
pub(crate) struct DecodeCache {
    index: HashMap<u32, usize>,
    pages: Vec<DecodedPage>,
    free: Vec<usize>,
    last: Option<(u32, usize)>,
    /// Round-robin cursor for the periodic slot-checksum sweep: one page
    /// per sweep, amortized.
    sweep_cursor: usize,
}

impl DecodeCache {
    pub(crate) fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// The cached decode at `pc`, if this word has been predecoded.
    /// Unaligned PCs always miss, so the fetch path reproduces the exact
    /// alignment fault.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32) -> Option<DecodedInsn> {
        if pc & 3 != 0 {
            return None;
        }
        let page = pc / PAGE_SIZE;
        let idx = match self.last {
            Some((p, idx)) if p == page => idx,
            _ => {
                let idx = *self.index.get(&page)?;
                self.last = Some((page, idx));
                idx
            }
        };
        self.pages[idx].slots[((pc % PAGE_SIZE) / 4) as usize]
    }

    /// One step of the periodic integrity check: recomputes one page's
    /// slot checksum per call, round-robin, so decoded-slot corruption is
    /// caught within a bounded number of sweeps. Returns a reason on a
    /// mismatch.
    pub(crate) fn verify_sweep(&mut self) -> Option<String> {
        if self.pages.is_empty() {
            return None;
        }
        let idx = self.sweep_cursor % self.pages.len();
        self.sweep_cursor = self.sweep_cursor.wrapping_add(1);
        let p = &self.pages[idx];
        if p.recompute_sum() == p.sum {
            return None;
        }
        let page = self
            .index
            .iter()
            .find(|&(_, &i)| i == idx)
            .map_or(0, |(&p, _)| p * PAGE_SIZE);
        Some(format!(
            "decoded slot checksum mismatch on page {page:#010x}"
        ))
    }

    /// Drops every decoded page. The next fills re-predecode from
    /// authoritative memory, which heals slot corruption.
    pub(crate) fn drop_all(&mut self) {
        let pages: Vec<u32> = self.index.keys().copied().collect();
        for page in pages {
            self.invalidate(page);
        }
        self.sweep_cursor = 0;
    }

    /// Fault-injection hook: flips one bit in the pre-extended immediate of
    /// a filled decode slot, bypassing the page checksum. Returns a
    /// description, or `None` when nothing is cached.
    pub(crate) fn corrupt_decode_slot(&mut self, pick: u64, bit: u64) -> Option<String> {
        let mut pages: Vec<u32> = self.index.keys().copied().collect();
        pages.sort_unstable();
        if pages.is_empty() {
            return None;
        }
        let n = pages.len() as u64;
        for off in 0..pages.len() {
            let page = pages[((pick + off as u64) % n) as usize];
            let idx = self.index[&page];
            let filled: Vec<usize> = self.pages[idx]
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, d)| d.map(|_| s))
                .collect();
            if filled.is_empty() {
                continue;
            }
            let slot = filled[(bit % filled.len() as u64) as usize];
            let pos = ((bit >> 40) % 32) as u32;
            let d = self.pages[idx].slots[slot]
                .as_mut()
                .expect("slot was just seen filled");
            d.imm ^= 1 << pos;
            self.last = None;
            return Some(format!(
                "decoded imm bit {pos} at {:#010x} flipped",
                page * PAGE_SIZE + 4 * slot as u32
            ));
        }
        None
    }

    /// Predecodes the straight-line block starting at the 4-aligned `pc`:
    /// every word up to the end of its page, stopping early at the first
    /// undecodable word or at a slot an earlier fill already populated.
    /// Words are read from main memory directly (matching fetch semantics:
    /// no cache traffic, unmapped words read as zero and predecode to
    /// `nop`).
    pub(crate) fn fill_block(&mut self, pc: u32, mem: &TaintedMemory) {
        debug_assert_eq!(pc & 3, 0);
        let page = pc / PAGE_SIZE;
        let idx = match self.index.get(&page) {
            Some(&idx) => idx,
            None => {
                let idx = self.free.pop().unwrap_or_else(|| {
                    self.pages.push(DecodedPage::new());
                    self.pages.len() - 1
                });
                self.index.insert(page, idx);
                idx
            }
        };
        let base = pc - pc % PAGE_SIZE;
        for slot in ((pc % PAGE_SIZE) / 4) as usize..SLOTS {
            if self.pages[idx].slots[slot].is_some() {
                break;
            }
            let addr = base + 4 * slot as u32;
            let Ok((word, _)) = mem.read_u32(addr) else {
                break;
            };
            let Ok(d) = DecodedInsn::predecode(addr, word) else {
                break;
            };
            self.pages[idx].slots[slot] = Some(d);
            self.pages[idx].sum ^= slot_hash(slot, &d);
        }
    }

    /// Drops the cached page, returning whether anything was cached for it.
    pub(crate) fn invalidate(&mut self, page: u32) -> bool {
        let Some(idx) = self.index.remove(&page) else {
            return false;
        };
        self.pages[idx].clear();
        self.free.push(idx);
        if matches!(self.last, Some((p, _)) if p == page) {
            self.last = None;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::{IAluOp, Instr, Reg, TEXT_BASE};
    use ptaint_mem::WordTaint;

    fn addiu(imm: i16) -> Instr {
        Instr::IAlu {
            op: IAluOp::Addiu,
            rt: Reg::new(8),
            rs: Reg::new(0),
            imm,
        }
    }

    fn text_with(words: &[u32]) -> TaintedMemory {
        let mut mem = TaintedMemory::new();
        for (i, &w) in words.iter().enumerate() {
            mem.write_u32(TEXT_BASE + 4 * i as u32, w, WordTaint::CLEAN)
                .unwrap();
        }
        mem
    }

    #[test]
    fn fill_then_lookup_roundtrips_and_extends_to_unmapped_nops() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        assert_eq!(cache.lookup(TEXT_BASE), None);
        cache.fill_block(TEXT_BASE, &mem);
        assert_eq!(cache.lookup(TEXT_BASE).unwrap().instr, addiu(1));
        assert_eq!(cache.lookup(TEXT_BASE + 4).unwrap().instr, addiu(2));
        // Unmapped words beyond the program read as zero -> nop, like fetch.
        assert_eq!(cache.lookup(TEXT_BASE + 8).unwrap().instr, Instr::NOP);
        // Unaligned lookups always miss.
        assert_eq!(cache.lookup(TEXT_BASE + 2), None);
    }

    #[test]
    fn fill_stops_at_undecodable_words() {
        let mem = text_with(&[addiu(1).encode(), 0xffff_ffff, addiu(3).encode()]);
        assert!(Instr::decode(0xffff_ffff).is_err());
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.lookup(TEXT_BASE).is_some());
        assert_eq!(cache.lookup(TEXT_BASE + 4), None, "bad word left uncached");
        // A later fill starting past the bad word predecodes the rest.
        cache.fill_block(TEXT_BASE + 8, &mem);
        assert_eq!(cache.lookup(TEXT_BASE + 8).unwrap().instr, addiu(3));
    }

    #[test]
    fn invalidate_drops_the_page_and_allows_refill() {
        let mem = text_with(&[addiu(1).encode()]);
        let page = TEXT_BASE / PAGE_SIZE;
        let mut cache = DecodeCache::new();
        assert!(!cache.invalidate(page), "nothing cached yet");
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.invalidate(page));
        assert_eq!(cache.lookup(TEXT_BASE), None);
        // Refill (reusing the freed slot array) sees fresh contents.
        let patched = text_with(&[addiu(7).encode()]);
        cache.fill_block(TEXT_BASE, &patched);
        assert_eq!(cache.lookup(TEXT_BASE).unwrap().instr, addiu(7));
    }

    #[test]
    fn pages_are_independent() {
        let mut mem = text_with(&[addiu(1).encode()]);
        mem.write_u32(TEXT_BASE + PAGE_SIZE, addiu(2).encode(), WordTaint::CLEAN)
            .unwrap();
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        cache.fill_block(TEXT_BASE + PAGE_SIZE, &mem);
        assert!(cache.invalidate(TEXT_BASE / PAGE_SIZE));
        assert_eq!(cache.lookup(TEXT_BASE), None);
        assert_eq!(
            cache.lookup(TEXT_BASE + PAGE_SIZE).unwrap().instr,
            addiu(2),
            "sibling page survives the invalidation"
        );
    }

    #[test]
    fn the_sweep_catches_slot_corruption() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        assert_eq!(cache.verify_sweep(), None, "clean cache passes");
        cache.corrupt_decode_slot(0, 0).unwrap();
        assert!(cache.verify_sweep().unwrap().contains("checksum mismatch"));
    }

    #[test]
    fn drop_all_drops_pages_and_refills_heal() {
        let mem = text_with(&[addiu(1).encode()]);
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        cache.corrupt_decode_slot(0, 0).unwrap();
        cache.drop_all();
        assert_eq!(cache.lookup(TEXT_BASE), None, "pages dropped");
        // The refill re-predecodes from authoritative memory: the corrupted
        // slot is healed.
        cache.fill_block(TEXT_BASE, &mem);
        let d = cache.lookup(TEXT_BASE).unwrap();
        assert_eq!(d.instr, addiu(1));
        assert_eq!(d.imm, 1, "corruption healed by the authoritative refill");
        assert_eq!(cache.verify_sweep(), None);
    }

    #[test]
    fn corruption_hook_reports_none_on_an_empty_cache() {
        let mut cache = DecodeCache::new();
        assert_eq!(cache.corrupt_decode_slot(7, 9), None);
    }
}
