//! Property-based test: for *arbitrary generated programs*, the
//! randomized binary is observationally equivalent to the original.

use proptest::prelude::*;
use vcfr::isa::{AluOp, Asm, Cond, Image, Machine, Reg};
use vcfr::rewriter::{randomize, RandomizeConfig};

/// Registers the generator is allowed to clobber freely.
const SCRATCH: [Reg; 8] =
    [Reg::Rax, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9, Reg::R10, Reg::R11];

/// One generated instruction, chosen from a subset that can never fault
/// or diverge.
#[derive(Clone, Debug)]
enum Op {
    MovRI(usize, i64),
    MovRR(usize, usize),
    Alu(AluOp, usize, usize),
    AluI(AluOp, usize, i32),
    Lea(usize, usize, i16),
    Load(usize, u8),
    Store(u8, usize),
    SkipIf(Cond, usize, i32),
    Output(usize),
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Mul),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Lt),
        Just(Cond::Ge),
        Just(Cond::B),
        Just(Cond::A),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let r = 0usize..SCRATCH.len();
    prop_oneof![
        (r.clone(), any::<i64>()).prop_map(|(d, v)| Op::MovRI(d, v)),
        (r.clone(), r.clone()).prop_map(|(d, s)| Op::MovRR(d, s)),
        (arb_alu(), r.clone(), r.clone()).prop_map(|(op, d, s)| Op::Alu(op, d, s)),
        (arb_alu(), r.clone(), any::<i32>()).prop_map(|(op, d, v)| Op::AluI(op, d, v)),
        (r.clone(), r.clone(), any::<i16>()).prop_map(|(d, b, v)| Op::Lea(d, b, v)),
        (r.clone(), 0u8..32).prop_map(|(d, s)| Op::Load(d, s)),
        (0u8..32, r.clone()).prop_map(|(s, src)| Op::Store(s, src)),
        (arb_cond(), r.clone(), any::<i32>()).prop_map(|(c, l, v)| Op::SkipIf(c, l, v)),
        r.prop_map(Op::Output),
    ]
}

/// Emits the generated body once; `Op::SkipIf` becomes a short forward
/// branch over the next instruction (always well-formed).
fn emit(a: &mut Asm, body: &[Op]) {
    for op in body {
        match *op {
            Op::MovRI(d, v) => a.mov_ri(SCRATCH[d], v),
            Op::MovRR(d, s) => a.mov_rr(SCRATCH[d], SCRATCH[s]),
            Op::Alu(op, d, s) => a.alu_rr(op, SCRATCH[d], SCRATCH[s]),
            Op::AluI(op, d, v) => a.alu_ri(op, SCRATCH[d], v),
            Op::Lea(d, b, v) => a.lea(SCRATCH[d], SCRATCH[b], v as i32),
            Op::Load(d, slot) => a.load(SCRATCH[d], Reg::Rbx, slot as i32 * 8),
            Op::Store(slot, s) => a.store(Reg::Rbx, slot as i32 * 8, SCRATCH[s]),
            Op::SkipIf(cc, l, v) => {
                a.cmp_i(SCRATCH[l], v);
                let skip = a.label();
                a.jcc(cc, skip);
                // The skipped instruction: a benign register nudge.
                a.alu_ri(AluOp::Add, SCRATCH[l], 1);
                a.bind(skip);
            }
            Op::Output(s) => a.emit_output(SCRATCH[s]),
        }
    }
}

fn build_program(body: &[Op], loop_count: u8, with_call: bool) -> Image {
    let mut a = Asm::new(0x1000);
    let scratch = a.data_zeroed(32 * 8);
    a.mov_ri(Reg::Rbx, scratch.0 as i64);
    a.mov_ri(Reg::Rcx, loop_count as i64 + 1);
    let top = a.here();
    emit(&mut a, body);
    if with_call {
        a.call_named("leaf");
    }
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.emit_output(Reg::Rax);
    a.halt();
    a.func("leaf");
    a.alu_ri(AluOp::Add, Reg::Rax, 7);
    a.alu_ri(AluOp::Xor, Reg::Rax, 0x55);
    a.ret();
    a.finish().expect("generated programs assemble")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline property: randomization never changes behaviour.
    #[test]
    fn randomization_preserves_semantics(
        body in proptest::collection::vec(arb_op(), 1..40),
        loop_count in 0u8..6,
        with_call in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let image = build_program(&body, loop_count, with_call);
        let want = Machine::new(&image).run(200_000).expect("original runs");
        let rp = randomize(&image, &RandomizeConfig::with_seed(seed)).expect("randomizes");
        let got = rp.scattered_machine().run(200_000).expect("scattered runs");
        prop_assert_eq!(got.output, want.output);
        prop_assert_eq!(got.stop, want.stop);
    }

    /// Structural invariants of the randomizer output.
    #[test]
    fn layout_invariants(
        body in proptest::collection::vec(arb_op(), 1..25),
        seed in any::<u64>(),
    ) {
        let image = build_program(&body, 1, false);
        let rp = randomize(&image, &RandomizeConfig::with_seed(seed)).expect("randomizes");
        // Every randomized instruction lands inside the region and the
        // map round-trips.
        for (o, r) in rp.layout().iter() {
            prop_assert!(r.raw() >= rp.region.0 && r.raw() < rp.region.1);
            prop_assert_eq!(rp.layout().to_orig(r), Some(o));
        }
        // Every instruction got a successor entry.
        prop_assert_eq!(rp.succ.len(), rp.stats.randomized);
        // Original addresses of randomized code are prohibited.
        prop_assert!(rp.table.derand(vcfr::core::RandAddr(image.entry)).is_err());
    }
}
