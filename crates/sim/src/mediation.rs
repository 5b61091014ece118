//! The VCFR mediation unit (§IV, §V-C): the hardware the paper adds to a
//! core, as one component every engine owns when it runs in VCFR mode.
//!
//! The unit holds the DRC, the live epoch's tables (a view over its
//! layout), the stack-slot state of §IV-C and the counters of its own
//! work (walk cycles, epochs, the re-randomization pause). It translates
//! return addresses and transfer targets through the DRC, walks the
//! in-memory tables on a miss, and swaps layouts at epoch boundaries. It
//! never touches pipeline timing: each operation returns the cycles it
//! cost, and the engine decides where they land (a stall, a redirect, a
//! pause). That contract is the seam an alternative mediation scheme
//! would plug into without touching an engine.
//!
//! The unit also owns the fault policy: [`classify_fault`] judges every
//! injected flip and names the one [`FaultAction`] the engine owes.
//!
//! [`Mode`] is the other half of the seam: it answers every per-mode
//! question (the front end's address space, the VCFR program and its DRC
//! geometry) once, so no engine matches on the mode.

use crate::config::{DrcBacking, SimConfig};
use crate::faults::{
    ContainmentPolicy, FaultOutcome, FaultPersistence, FaultTarget, ScheduledFault,
};
use crate::flatmap::FlatMap;
use crate::hierarchy::MemoryHierarchy;
use crate::tlb::Tlb;
use vcfr_core::{
    rerandomize, Drc, DrcConfig, DrcLookup, DrcStats, LayoutMap, OrigAddr, RandAddr, StackBitmap,
    TranslationTable,
};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow, Image, MemAccess};
use vcfr_rewriter::RandomizedProgram;

/// Which machine to simulate.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// The original binary with no randomization.
    Baseline(&'a Image),
    /// Straightforward hardware ILR over the scattered layout.
    NaiveIlr(&'a RandomizedProgram),
    /// Virtual control flow randomization with a DRC of the given
    /// geometry.
    Vcfr {
        /// The randomized program (layout + tables).
        program: &'a RandomizedProgram,
        /// DRC geometry.
        drc: DrcConfig,
    },
}

impl<'a> Mode<'a> {
    /// The image the architecture executes (always the original
    /// semantics).
    pub(crate) fn image_ref(&self) -> &'a Image {
        match self {
            Mode::Baseline(img) => img,
            Mode::NaiveIlr(rp) | Mode::Vcfr { program: rp, .. } => &rp.original,
        }
    }

    /// The address the front end fetches `addr` from and indexes its
    /// predictors with: the scattered randomized address under naive ILR,
    /// the original address otherwise (VCFR keeps fetch in the original
    /// space).
    pub(crate) fn fetch_addr(&self, addr: Addr) -> Addr {
        match self {
            Mode::NaiveIlr(rp) => rp.rand_or_orig(addr),
            Mode::Baseline(_) | Mode::Vcfr { .. } => addr,
        }
    }

    /// The randomized program and DRC geometry of a VCFR run (`None` for
    /// the modes without mediation hardware).
    pub(crate) fn vcfr(&self) -> Option<(&'a RandomizedProgram, DrcConfig)> {
        match *self {
            Mode::Vcfr { program, drc } => Some((program, drc)),
            Mode::Baseline(_) | Mode::NaiveIlr(_) => None,
        }
    }
}

/// Fixed cost of an epoch swap: drain the pipeline, flush the DRC, and
/// switch the table base registers.
const RERAND_QUIESCE_CYCLES: u64 = 200;
/// Per-entry cost of rebuilding the in-memory translation tables.
const RERAND_ENTRY_CYCLES: u64 = 2;
/// Per-slot cost of rewriting a live randomized return address.
const RERAND_SLOT_CYCLES: u64 = 4;
/// Translation-table pages hidden from user space.
const TABLE_PAGES: u32 = 64;

/// The VCFR mediation unit of one core.
pub(crate) struct Mediation<'a> {
    program: &'a RandomizedProgram,
    backing: DrcBacking,
    flush_interval: Option<u64>,
    rerand_epoch: Option<u64>,
    drc: Drc,
    /// Stack slots holding a randomized return address (§IV-C).
    bitmap: StackBitmap,
    /// The randomized value each marked slot holds.
    stack_rand: FlatMap,
    /// The original return address behind each marked slot, so an epoch
    /// swap can re-randomize live slots.
    stack_orig: FlatMap,
    /// Tables of the current epoch, a view over its layout (`None`
    /// before the first swap: the program's tables are live). They sit at
    /// the program's table base, so the hidden TLB pages stay valid
    /// across swaps.
    epoch: Option<TranslationTable>,
    /// Epoch swaps so far.
    pub(crate) epochs: u64,
    /// Cycles of re-randomization pause charged so far.
    pub(crate) rerand_stall: u64,
    /// Cycles spent walking the tables on DRC misses.
    pub(crate) walk_cycles: u64,
}

impl<'a> Mediation<'a> {
    /// The unit of a VCFR run (`None` for the other modes). Its table
    /// pages are hidden from user space in `dtlb` (the TLB
    /// page-visibility bit, §IV-A).
    pub(crate) fn new(mode: &Mode<'a>, cfg: &SimConfig, dtlb: &mut Tlb) -> Option<Mediation<'a>> {
        let (program, drc) = mode.vcfr()?;
        let base = program.table.base();
        for page in 0..TABLE_PAGES {
            dtlb.set_invisible(base + page * 4096);
        }
        Some(Mediation {
            program,
            backing: cfg.drc_backing,
            flush_interval: cfg.drc_flush_interval,
            rerand_epoch: cfg.rerand_epoch,
            drc: Drc::new(drc),
            bitmap: StackBitmap::new(),
            stack_rand: FlatMap::new(),
            stack_orig: FlatMap::new(),
            epoch: None,
            epochs: 0,
            rerand_stall: 0,
            walk_cycles: 0,
        })
    }

    /// The live epoch's tables.
    fn table(&self) -> &TranslationTable {
        self.epoch.as_ref().unwrap_or(&self.program.table)
    }

    /// The tables of an epoch's `layout`, built as the program's are: at
    /// its table base, with its fail-over set.
    fn epoch_tables(&self, layout: LayoutMap) -> TranslationTable {
        let mut table = TranslationTable::from_layout(layout, self.program.table.base());
        for a in self.program.table.unrandomized_addrs() {
            table.add_unrandomized(a);
        }
        table
    }

    /// The live randomized address of original `addr` (itself for
    /// fail-over instructions).
    fn rand_of(&self, addr: Addr) -> Addr {
        self.table().layout().to_rand(OrigAddr(addr)).map(|r| r.raw()).unwrap_or(addr)
    }

    /// Charges the table walk of a DRC miss and returns its latency (0 on
    /// a hit).
    fn walk(&mut self, l: DrcLookup, hier: &mut MemoryHierarchy, now: u64) -> u64 {
        if l.hit {
            return 0;
        }
        let walk = match self.backing {
            DrcBacking::SharedL2 => hier.table_walk(l.entry_addr, now),
            DrcBacking::Dedicated { latency } => latency,
        };
        self.walk_cycles += walk;
        walk
    }

    /// De-randomizes `rand` through the DRC; returns the walk latency.
    fn derand(&mut self, rand: Addr, hier: &mut MemoryHierarchy, now: u64) -> u64 {
        let table = self.epoch.as_ref().unwrap_or(&self.program.table);
        match self.drc.derandomize(RandAddr(rand), table) {
            Ok(l) => self.walk(l, hier, now),
            Err(_) => 0,
        }
    }

    /// Start-of-instruction boundaries for the `n`th committed
    /// instruction: a context switch flushes the DRC, and an epoch
    /// boundary swaps the layout (§V-C). Returns the pause the swap
    /// costs, which the engine charges by quiescing its pipeline.
    pub(crate) fn begin(&mut self, n: u64) -> Option<u64> {
        if self.flush_interval.is_some_and(|i| n.is_multiple_of(i)) {
            self.drc.flush();
        }
        self.rerand_epoch.is_some_and(|e| n.is_multiple_of(e)).then(|| self.swap_epoch())
    }

    /// How many instructions after the `n`th commit before the next DRC
    /// flush or epoch boundary (`u64::MAX` when neither is scheduled).
    pub(crate) fn quiet_after(&self, n: u64) -> u64 {
        [self.flush_interval, self.rerand_epoch]
            .into_iter()
            .flatten()
            .filter(|&k| k > 0)
            .map(|k| (n / k + 1) * k - n - 1)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Randomizes the return address a call pushes (one DRC lookup).
    /// Returns the randomized value and the walk latency, or `None` when
    /// the address has no translation.
    pub(crate) fn randomize_return(
        &mut self,
        ret_addr: Addr,
        hier: &mut MemoryHierarchy,
        now: u64,
    ) -> Option<(u32, u64)> {
        let table = self.epoch.as_ref().unwrap_or(&self.program.table);
        let l = self.drc.randomize(OrigAddr(ret_addr), table).ok()?;
        Some((l.translated, self.walk(l, hier, now)))
    }

    /// De-randomizes a transfer target (its live randomized address)
    /// through the DRC; returns the walk latency.
    pub(crate) fn derandomize_target(
        &mut self,
        target: Addr,
        hier: &mut MemoryHierarchy,
        now: u64,
    ) -> u64 {
        let rand = self.rand_of(target);
        self.derand(rand, hier, now)
    }

    /// Stack-slot hygiene for one data access of an instruction whose
    /// control flow is `control` (§IV-C). A read of a marked slot is
    /// transparently de-randomized (one DRC lookup; the returned walk
    /// latency lands on the load); any unrelated overwrite clears the
    /// mark; a return's pop retires its slot (the popped target is
    /// de-randomized at control resolution instead).
    pub(crate) fn stack_access(
        &mut self,
        acc: MemAccess,
        control: Option<ControlFlow>,
        hier: &mut MemoryHierarchy,
        now: u64,
    ) -> u64 {
        let is_call =
            matches!(control, Some(ControlFlow::Call { .. } | ControlFlow::IndirectCall { .. }));
        if acc.write {
            if !is_call && self.bitmap.is_marked(acc.addr) {
                self.clear_slot(acc.addr);
            }
        } else if matches!(control, Some(ControlFlow::Return { .. })) {
            self.clear_slot(acc.addr);
        } else if self.bitmap.is_marked(acc.addr) {
            if let Some(v) = self.stack_rand.get(acc.addr) {
                return self.derand(v, hier, now);
            }
        }
        0
    }

    /// Marks `slot` as holding randomized return address `rand` (of
    /// original `orig`).
    pub(crate) fn mark_slot(&mut self, slot: Addr, rand: u32, orig: Addr) {
        self.bitmap.mark(slot);
        self.stack_rand.insert(slot, rand);
        self.stack_orig.insert(slot, orig);
    }

    fn clear_slot(&mut self, slot: Addr) {
        self.bitmap.clear(slot);
        self.stack_rand.remove(slot);
        self.stack_orig.remove(slot);
    }

    /// Swaps to a freshly re-randomized layout (§V-C): the tables are
    /// rebuilt at the same base, every live marked slot is rewritten to
    /// its new randomized return address, and the DRC is flushed.
    /// Returns the pause: quiesce, plus the table rebuild, plus the slot
    /// rewrites.
    fn swap_epoch(&mut self) -> u64 {
        self.epochs += 1;
        // Deterministic per epoch: seeded by the epoch ordinal alone.
        let seed = 0x5eed_0000_0000_0000u64 ^ self.epochs;
        let (lo, hi) = self.program.region;
        let table = self.epoch_tables(rerandomize(self.table().layout(), lo, hi, seed));
        // Hardware rewrites live randomized return addresses in place;
        // slots holding fail-over (un-randomized) addresses keep them.
        let fresh = table.layout();
        let remapped: Vec<(Addr, u32)> = self
            .stack_orig
            .iter()
            .map(|(slot, orig)| {
                (slot, fresh.to_rand(OrigAddr(orig)).map(|r| r.raw()).unwrap_or(orig))
            })
            .collect();
        let slots = remapped.len() as u64;
        for (slot, rand) in remapped {
            self.stack_rand.insert(slot, rand);
        }
        self.drc.flush();
        let cost = RERAND_QUIESCE_CYCLES
            + table.len() as u64 * RERAND_ENTRY_CYCLES
            + slots * RERAND_SLOT_CYCLES;
        self.rerand_stall += cost;
        self.epoch = Some(table);
        cost
    }

    /// DRC lookup counters.
    pub(crate) fn drc_stats(&self) -> DrcStats {
        self.drc.stats()
    }

    /// Serialises the unit's state (checkpoint support). The epoch's
    /// layout is written only once a swap has made it differ from the
    /// program's; its tables are derived from it.
    pub(crate) fn save(&self, w: &mut Writer) {
        self.drc.save(w);
        self.bitmap.save(w);
        self.stack_rand.save(w);
        self.stack_orig.save(w);
        match &self.epoch {
            Some(t) => {
                w.u8(1);
                t.layout().save(w);
            }
            None => w.u8(0),
        }
        w.u64(self.epochs);
        w.u64(self.rerand_stall);
        w.u64(self.walk_cycles);
    }

    /// Restores [`Mediation::save`] output into this freshly built unit
    /// (same mode and configuration as the saved one). An epoch's tables
    /// are rebuilt from its layout, as [`Mediation::swap_epoch`] builds
    /// them.
    pub(crate) fn restored(mut self, r: &mut Reader<'_>) -> Result<Mediation<'a>, WireError> {
        self.drc = Drc::restore(self.drc.config(), r)?;
        self.bitmap = StackBitmap::restore(r)?;
        self.stack_rand = FlatMap::restore(r)?;
        self.stack_orig = FlatMap::restore(r)?;
        self.epoch = match r.u8()? {
            0 => None,
            1 => {
                let (base, len) = self.program.layout().range();
                Some(self.epoch_tables(LayoutMap::restore(r, base, len)?))
            }
            tag => return Err(WireError::BadTag { tag }),
        };
        self.epochs = r.u64()?;
        self.rerand_stall = r.u64()?;
        self.walk_cycles = r.u64()?;
        Ok(self)
    }
}

/// What an engine owes once [`classify_fault`] has judged a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Nothing (masked, silent, or scrubbed in place).
    None,
    /// Trap-and-refill: re-fetch after the mispredict penalty.
    Refetch,
    /// Quiesce for the emergency epoch swap's cycles.
    Pause(u64),
    /// Stop the machine (a sticky table fault under the Halt policy).
    Halt,
}

/// Classifies one scheduled fault against a core's unit (`None` on the
/// machines without one), data TLB and image, with `pc` the instruction
/// just committed, and returns how it resolved and the one action the
/// engine owes. Injection is counterfactual: the golden architectural
/// run is never corrupted, so the unit only scrubs, swaps or records.
pub(crate) fn classify_fault(
    med: Option<&mut Mediation<'_>>,
    f: &ScheduledFault,
    policy: ContainmentPolicy,
    pc: Addr,
    dtlb: &mut Tlb,
    image: &Image,
) -> (FaultOutcome, FaultAction) {
    let bit = 1u32 << (f.bit % 32);
    let outcome = match (f.target, med) {
        // Base and naive machines: the mediation hardware does not exist,
        // so flips aimed at it land in dead state; a corrupted PC is only
        // caught when it leaves the text segment.
        (FaultTarget::Rpc | FaultTarget::Upc, None) => {
            if image.in_text(pc ^ bit) {
                FaultOutcome::Silent
            } else {
                FaultOutcome::DetectedDecodeFailure
            }
        }
        (_, None) => FaultOutcome::Masked,
        // A flip in a valid DRC entry trips its parity on the next probe
        // and the entry scrubs (the refill is a natural miss, so no extra
        // charge); an invalid entry absorbs the flip.
        (FaultTarget::DrcEntry, Some(med)) => {
            if med.drc.scrub_entry(f.lane as usize) {
                FaultOutcome::DetectedParityScrub
            } else {
                FaultOutcome::Masked
            }
        }
        // Table slots are parity-protected too. A transient flip scrubs
        // and the slot rewrites from the layout; a sticky one keeps
        // re-asserting and must be contained.
        (FaultTarget::TableSlot, Some(med)) => match (f.persistence, policy) {
            (FaultPersistence::Transient, _) => FaultOutcome::DetectedParityScrub,
            (FaultPersistence::Sticky, ContainmentPolicy::Recover) => {
                return (FaultOutcome::Contained, FaultAction::Pause(med.swap_epoch()));
            }
            (FaultPersistence::Sticky, ContainmentPolicy::Halt) => {
                return (FaultOutcome::Contained, FaultAction::Halt);
            }
        },
        // A flipped randomized PC almost never lands on another valid
        // randomized address: de-randomization rejects it, the same
        // prohibited/unmapped check that stops an attacker. The pure
        // table walk classifies it, so the DRC is untouched.
        (FaultTarget::Rpc, Some(med)) => {
            match med.table().derand(RandAddr(med.rand_of(pc) ^ bit)) {
                Err(_) => FaultOutcome::DetectedTranslationFault,
                Ok(orig) if orig.raw() == pc => FaultOutcome::Masked,
                Ok(_) => FaultOutcome::Silent,
            }
        }
        // A flipped un-randomized (fetch-space) PC: the TLB
        // page-visibility bit catches wanders into table pages, decode
        // catches exits from the text segment.
        (FaultTarget::Upc, Some(_)) => {
            let flipped = pc ^ bit;
            if !dtlb.user_visible(flipped) {
                dtlb.record_visibility_fault();
                FaultOutcome::DetectedVisibilityFault
            } else if !image.in_text(flipped) {
                FaultOutcome::DetectedDecodeFailure
            } else {
                FaultOutcome::Silent
            }
        }
        // A flipped bitmap word either spuriously de-randomizes a plain
        // value or returns a raw randomized address; both fail
        // de-randomization when any slot is live, and an idle bitmap
        // absorbs the flip.
        (FaultTarget::StackBitmap, Some(med)) => {
            if med.bitmap.marked_count() > 0 {
                FaultOutcome::DetectedTranslationFault
            } else {
                FaultOutcome::Masked
            }
        }
    };
    // Faults caught on the fetch path trap and refill.
    let refetch = outcome.detected() && outcome != FaultOutcome::DetectedParityScrub;
    (outcome, if refetch { FaultAction::Refetch } else { FaultAction::None })
}
