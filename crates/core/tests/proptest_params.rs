//! Property tests for the randomization parameter surface:
//! `RandParams::validate` accepts exactly the documented ranges and
//! every rejection names the offending field, the span formula honours
//! both floors, and `describe` is injective (two distinct parameter
//! points never collide in manifests or file names).

use proptest::prelude::*;
use vcfr_core::{
    DrcConfig, DrcConfigError, RandParams, RandParamsError, MAX_DRC_ENTRIES, MAX_ENTROPY_BITS,
    MAX_SPARSITY, MIN_ENTROPY_BITS,
};

/// Raw (possibly invalid) parameter points, biased to straddle every
/// range boundary — the DRC size both ends of `1..=MAX_DRC_ENTRIES`.
fn arb_raw_params() -> impl Strategy<Value = RandParams> {
    let entries = prop_oneof![
        0usize..300,
        (MAX_DRC_ENTRIES - 8)..(MAX_DRC_ENTRIES + 8),
        Just(MAX_DRC_ENTRIES * 2),
        Just(1usize << 40),
    ];
    (
        (0u32..40, 0u32..2048),
        (
            prop_oneof![Just(None), (0u64..100_000).prop_map(Some)],
            (entries, 0usize..6),
        ),
    )
        .prop_map(|((entropy_bits, sparsity), (rerand_epoch, (entries, ways)))| RandParams {
            entropy_bits,
            sparsity,
            rerand_epoch,
            drc: DrcConfig { entries, ways },
        })
}

/// Valid parameter points only: every field drawn from its accepted
/// range, the DRC as `ways * 2^k` entries.
fn arb_valid_params() -> impl Strategy<Value = RandParams> {
    (
        (MIN_ENTROPY_BITS..MAX_ENTROPY_BITS + 1, 1u32..MAX_SPARSITY + 1),
        (
            prop_oneof![Just(None), (1u64..100_000).prop_map(Some)],
            (1usize..5, 0u32..9),
        ),
    )
        .prop_map(|((entropy_bits, sparsity), (rerand_epoch, (ways, k)))| RandParams {
            entropy_bits,
            sparsity,
            rerand_epoch,
            drc: DrcConfig { entries: ways << k, ways },
        })
}

/// The documented acceptance predicate, restated independently of the
/// implementation.
fn in_documented_ranges(p: &RandParams) -> bool {
    (MIN_ENTROPY_BITS..=MAX_ENTROPY_BITS).contains(&p.entropy_bits)
        && (1..=MAX_SPARSITY).contains(&p.sparsity)
        && p.rerand_epoch != Some(0)
        && p.drc.entries > 0
        && p.drc.entries <= MAX_DRC_ENTRIES
        && p.drc.ways > 0
        && p.drc.entries.is_multiple_of(p.drc.ways)
        && (p.drc.entries / p.drc.ways).is_power_of_two()
}

proptest! {
    #[test]
    fn validate_matches_the_documented_ranges(p in arb_raw_params()) {
        prop_assert_eq!(p.validate().is_ok(), in_documented_ranges(&p));
    }

    #[test]
    fn rejections_name_the_offending_field(p in arb_raw_params()) {
        if let Err(e) = p.validate() {
            let needle = match e {
                RandParamsError::EntropyBits(_) => "entropy_bits",
                RandParamsError::Sparsity(_) => "sparsity",
                RandParamsError::RerandEpoch => "rerand_epoch",
                RandParamsError::Drc(DrcConfigError::Entries(_)) => "drc.entries",
                RandParamsError::Drc(DrcConfigError::Ways { .. }) => "drc.ways",
                RandParamsError::Drc(DrcConfigError::Sets { .. }) => "drc.entries / drc.ways",
            };
            let msg = e.to_string();
            prop_assert!(msg.contains(needle), "{} should name {}", msg, needle);
            prop_assert!(msg.contains("got"), "{} should quote the rejected value", msg);
        }
    }

    #[test]
    fn span_honours_both_floors(p in arb_valid_params(), text_len in 0usize..100_000) {
        let span = p.span_bytes(text_len) as u64;
        prop_assert!(span.is_power_of_two());
        prop_assert!(span >= 1u64 << p.entropy_bits);
        let product = text_len as u64 * p.sparsity as u64;
        if product <= u32::MAX as u64 {
            prop_assert!(span >= product, "span {} < text*sparsity {}", span, product);
        }
    }

    #[test]
    fn span_is_monotone_in_entropy_bits(p in arb_valid_params(), text_len in 0usize..100_000) {
        if p.entropy_bits < MAX_ENTROPY_BITS {
            let q = RandParams { entropy_bits: p.entropy_bits + 1, ..p };
            prop_assert!(q.span_bytes(text_len) >= p.span_bytes(text_len));
        }
    }

    #[test]
    fn describe_distinguishes_distinct_points(
        p in arb_valid_params(),
        q in arb_valid_params(),
    ) {
        if p != q {
            prop_assert!(
                p.describe() != q.describe(),
                "distinct points {:?} and {:?} collide on {}",
                p, q, p.describe()
            );
        } else {
            prop_assert_eq!(p.describe(), q.describe());
        }
    }
}
