//! Coverage-guided gadget-chain fuzzing: the empirical attacker model
//! behind the entropy/security frontier.
//!
//! [`compare_surface`](crate::compare_surface) answers the *static*
//! question — which gadgets remain addressable after randomization. The
//! fuzzer answers the *dynamic* one: given a probe budget, how often does
//! an adaptive attacker actually spawn a shell against a randomized
//! layout? Each trial randomizes the binary with a fresh layout seed
//! (modelling re-randomization between attempts), seeds a corpus from the
//! offline study of the public binary (the `rop_attack` example's
//! methodology: assembled template payloads plus the bare syscall-gadget
//! chain), then spends its probes guessing entry points inside the
//! randomization region. Feedback is architectural: a probe that retires
//! even one instruction has found mapped code, so its address becomes a
//! hot spot for follow-up probes and the mutated chain joins the corpus —
//! new pages and new chains are the coverage signal.
//!
//! Every function here is a pure function of its arguments — trials can
//! be sharded across threads in any order and the aggregate report is
//! bit-identical.

use std::collections::BTreeSet;

use crate::attack::AttackSurface;
use crate::scanner::Capability;
use vcfr_core::RandParams;
use vcfr_isa::{Addr, Image};
use vcfr_rewriter::{randomize, RandomizeConfig};

/// SplitMix64 — the fuzzer's deterministic RNG (same generator the
/// rewriter's layout shuffle uses).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fuzzing campaign parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed: every layout and every probe sequence derives from it.
    pub seed: u64,
    /// Independent randomized layouts attacked (one re-randomization per
    /// trial).
    pub trials: u32,
    /// Chain launches the attacker may spend against each layout.
    pub probes_per_trial: u32,
    /// Instruction budget per launch.
    pub exec_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { seed: 2015, trials: 24, probes_per_trial: 96, exec_budget: 4096 }
    }
}

/// What one trial (one randomized layout) yielded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialReport {
    /// Trial index.
    pub trial: u32,
    /// Whether some probe spawned a shell.
    pub succeeded: bool,
    /// Probes spent until success, or the full budget on failure.
    pub probes_spent: u32,
    /// Distinct 4 KiB pages of the randomization region where a probe
    /// found mapped code.
    pub pages_discovered: usize,
    /// Mutated chains that earned a place in the corpus (new coverage).
    pub chains_extended: usize,
}

/// The aggregate of a fuzzing campaign at one parameter point.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzReport {
    /// The randomization parameters under attack.
    pub params: RandParams,
    /// The campaign configuration.
    pub config: FuzzConfig,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialReport>,
}

impl FuzzReport {
    /// Trials that spawned a shell.
    pub fn successes(&self) -> usize {
        self.trials.iter().filter(|t| t.succeeded).count()
    }

    /// Empirical attacker success probability: successful trials over
    /// total trials (0 when no trials ran).
    pub fn success_probability(&self) -> f64 {
        if self.trials.is_empty() {
            0.0
        } else {
            self.successes() as f64 / self.trials.len() as f64
        }
    }

    /// Total pages of mapped code discovered across all trials.
    pub fn pages_discovered(&self) -> usize {
        self.trials.iter().map(|t| t.pages_discovered).sum()
    }
}

/// The attacker's offline preparation against the public binary: every
/// assemblable template payload rendered to stack words, plus the bare
/// one-gadget syscall chain the `rop_attack` example mounts.
pub fn seed_corpus(surface: &AttackSurface<'_>) -> Vec<Vec<u64>> {
    let mut corpus: Vec<Vec<u64>> = surface
        .payloads()
        .into_iter()
        .filter_map(|(_, p)| p)
        .map(|p| surface.stack_words(&p))
        .collect();
    if let Some(g) = surface.find(Capability::Syscall) {
        corpus.push(vec![g.addr as u64]);
    }
    if corpus.is_empty() {
        // Nothing assembles offline: the attacker still probes blind.
        corpus.push(vec![0]);
    }
    corpus
}

/// Runs one trial: randomize with a trial-specific layout seed, then
/// probe. Pure function of its arguments — shard freely.
pub fn fuzz_trial(
    surface: &AttackSurface<'_>,
    seeds: &[Vec<u64>],
    params: &RandParams,
    fz: &FuzzConfig,
    trial: u32,
) -> TrialReport {
    let failed = TrialReport {
        trial,
        succeeded: false,
        probes_spent: 0,
        pages_discovered: 0,
        chains_extended: 0,
    };
    let mut layout_state = fz.seed ^ 0x5ec0_4d0a_11ab_1e5e ^ u64::from(trial);
    let layout_seed = splitmix64(&mut layout_state);
    let rcfg = RandomizeConfig::from_params(layout_seed, params);
    let Ok(rp) = randomize(surface.image(), &rcfg) else {
        return failed;
    };
    let (lo, hi) = rp.region;
    let span = u64::from(hi.wrapping_sub(lo)).max(1);

    let mut state = fz.seed ^ u64::from(trial).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut corpus: Vec<Vec<u64>> = seeds.iter().filter(|c| !c.is_empty()).cloned().collect();
    if corpus.is_empty() {
        corpus.push(vec![0]);
    }
    let mut hot: Vec<Addr> = Vec::new();
    let mut pages: BTreeSet<Addr> = BTreeSet::new();
    let mut chains_extended = 0usize;

    for probe in 0..fz.probes_per_trial {
        // Half the probes jitter around known code, half explore blind.
        let guess = if !hot.is_empty() && splitmix64(&mut state) & 1 == 1 {
            let h = hot[(splitmix64(&mut state) % hot.len() as u64) as usize];
            let jitter = (splitmix64(&mut state) % 33) as Addr;
            h.wrapping_add(jitter).wrapping_sub(16).clamp(lo, hi - 1)
        } else {
            lo.wrapping_add((splitmix64(&mut state) % span) as Addr)
        };
        let pick = (splitmix64(&mut state) % corpus.len() as u64) as usize;
        let mut words = corpus[pick].clone();
        words[0] = u64::from(guess);
        let run = surface.launch_against(&rp, &words, fz.exec_budget);
        if run.shell() {
            return TrialReport {
                trial,
                succeeded: true,
                probes_spent: probe + 1,
                pages_discovered: pages.len(),
                chains_extended,
            };
        }
        if run.steps > 0 {
            // The guess decoded and retired real instructions: mapped
            // code. Remember the page and keep probing near it.
            pages.insert(guess >> 12);
            hot.push(guess);
            if corpus.len() < 64 {
                corpus.push(words);
                chains_extended += 1;
            }
        }
    }

    TrialReport {
        trial,
        succeeded: false,
        probes_spent: fz.probes_per_trial,
        pages_discovered: pages.len(),
        chains_extended,
    }
}

/// Runs the whole campaign sequentially: scan once, seed the corpus,
/// attack `fz.trials` fresh layouts. The parallel path (the frontier
/// campaign) shards [`fuzz_trial`] instead and gets the same bits.
pub fn fuzz_params(image: &Image, params: &RandParams, fz: &FuzzConfig) -> FuzzReport {
    let surface = AttackSurface::scan(image);
    let seeds = seed_corpus(&surface);
    let trials =
        (0..fz.trials).map(|t| fuzz_trial(&surface, &seeds, params, fz, t)).collect();
    FuzzReport { params: *params, config: *fz, trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::{AluOp, Asm, Reg};

    fn victim() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.emit_output(Reg::Rax);
        a.halt();
        a.func("spare");
        a.pop(Reg::Rdi);
        a.ret();
        a.func("hidden_sys");
        a.alu_ri(AluOp::And, Reg::R10, 0x0303);
        a.ret();
        a.finish().unwrap()
    }

    #[test]
    fn campaign_is_deterministic() {
        let img = victim();
        let params = RandParams::default();
        let fz = FuzzConfig { trials: 4, probes_per_trial: 16, ..FuzzConfig::default() };
        let a = fuzz_params(&img, &params, &fz);
        let b = fuzz_params(&img, &params, &fz);
        assert_eq!(a, b, "same seed, same params, same report");
        assert_eq!(a.trials.len(), 4);
        assert!((0.0..=1.0).contains(&a.success_probability()));
    }

    #[test]
    fn trials_are_pure_and_order_free() {
        let img = victim();
        let surface = AttackSurface::scan(&img);
        let seeds = seed_corpus(&surface);
        let params = RandParams::default();
        let fz = FuzzConfig { trials: 3, probes_per_trial: 16, ..FuzzConfig::default() };
        let forward: Vec<_> =
            (0..3).map(|t| fuzz_trial(&surface, &seeds, &params, &fz, t)).collect();
        let mut backward: Vec<_> =
            (0..3).rev().map(|t| fuzz_trial(&surface, &seeds, &params, &fz, t)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn dense_layouts_leak_coverage() {
        let img = victim();
        // sparsity 2: code fills about half the span, so probes find it.
        let params = RandParams { sparsity: 2, ..RandParams::default() };
        params.validate().unwrap();
        let fz = FuzzConfig { trials: 4, probes_per_trial: 64, ..FuzzConfig::default() };
        let report = fuzz_params(&img, &params, &fz);
        assert!(
            report.pages_discovered() > 0,
            "a dense layout must leak mapped pages to the fuzzer"
        );
    }

    #[test]
    fn seed_corpus_reflects_the_offline_study() {
        let img = victim();
        let surface = AttackSurface::scan(&img);
        let seeds = seed_corpus(&surface);
        assert!(!seeds.is_empty());
        assert!(seeds.iter().all(|c| !c.is_empty()));
        // The bare syscall-gadget chain from the rop_attack example is in.
        let sys = surface.find(Capability::Syscall).unwrap().addr as u64;
        assert!(seeds.iter().any(|c| c == &vec![sys]));
    }
}
