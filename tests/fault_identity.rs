//! Every engine raises the *same* fault, field for field.
//!
//! Tiny programs that fault inside an `omp parallel for` body are run on
//! the sequential interpreter and on `Runtime::run_main` at one and two
//! workers. A worker that faults abandons the activation and the loop
//! re-runs on the master, which must raise the fault sequential execution
//! raises.
//! The expected errors are literals taken at 427c8b7 — before function
//! names were built lazily and before the engines shared one
//! `MemState::deref` — so neither change may move a field.

use pspdg::frontend::compile;
use pspdg::ir::interp::{ExecError, Interpreter, NullSink};
use pspdg::ir::{Inst, InstId, Value};
use pspdg::parallel::ParallelProgram;
use pspdg::parallelizer::{build_plan, Abstraction};
use pspdg::runtime::Runtime;

/// `body` over 64 workshared iterations; `decls` adds locals.
fn kernel(decls: &str, body: &str) -> ParallelProgram {
    compile(&format!(
        "int a[64]; int b[64];
         int main() {{
             int i; {decls}
             #pragma omp parallel for
             for (i = 0; i < 64; i++) {{ {body} }}
             return b[5];
         }}"
    ))
    .expect("compiles")
}

/// Replace the instruction of `main` that is the `skip + 1`-th (in arena
/// order) `rewrite` has a replacement for. `skip` steps over the loop
/// header's own load and branch, which must stay canonical for the loop to
/// be chunked at all.
fn mutate(p: &mut ParallelProgram, skip: usize, rewrite: impl Fn(&Inst) -> Option<Inst>) {
    let main = p.module.function_by_name("main").expect("main");
    let f = p.module.function_mut(main);
    let (id, new) = f
        .inst_ids()
        .filter_map(|id| rewrite(&f.inst(id).inst).map(|new| (id, new)))
        .nth(skip)
        .expect("an instruction matches");
    f.insts[id.index()].inst = new;
}

fn type_mismatch(inst: u32, expected: &'static str, got: &'static str) -> ExecError {
    ExecError::TypeMismatch {
        func: "main".to_string(),
        inst: InstId(inst),
        expected,
        got,
    }
}

#[test]
fn every_engine_raises_the_sequential_fault() {
    let main = || "main".to_string();
    let mut cases: Vec<(&str, ParallelProgram, u64, ExecError)> = vec![
        (
            "oob past the end",
            kernel("", "b[i] = a[i + 40] + i;"),
            1 << 48,
            ExecError::OutOfBounds {
                func: main(),
                inst: InstId(12),
                off: 64,
                size: 64,
            },
        ),
        (
            "oob negative",
            kernel("", "b[i] = a[30 - i] + i;"),
            1 << 48,
            ExecError::OutOfBounds {
                func: main(),
                inst: InstId(12),
                off: -1,
                size: 64,
            },
        ),
        (
            "undef read",
            kernel("int u;", "b[i] = a[i] + u;"),
            1 << 48,
            ExecError::UndefRead {
                func: main(),
                inst: InstId(13),
            },
        ),
        (
            "div by zero",
            kernel("", "b[i] = 1000 / (37 - i);"),
            1 << 48,
            ExecError::DivByZero {
                func: main(),
                inst: InstId(11),
            },
        ),
        (
            "out of fuel",
            kernel("", "b[i] = a[i] + i;"),
            300,
            ExecError::OutOfFuel,
        ),
        // Literals taken at 7c226e7. At two workers these fault on the
        // master's commit-time replay of the deferred critical: the replay
        // must leave the master heap untouched so the sequential re-run
        // raises the sequential fault.
        (
            "undef read in a critical",
            kernel("int s;", "\n#pragma omp critical\n{ s = s + a[i]; }\n"),
            1 << 48,
            ExecError::UndefRead {
                func: main(),
                inst: InstId(9),
            },
        ),
        (
            "div by zero in a critical",
            kernel(
                "",
                "\n#pragma omp critical\n{ b[0] = b[0] + 1; a[1] = 1000 / (b[0] - 37); }\n",
            ),
            1 << 48,
            ExecError::DivByZero {
                func: main(),
                inst: InstId(17),
            },
        ),
        (
            "oob through a protected index",
            kernel(
                "",
                "\n#pragma omp critical\n{ b[0] = b[0] + 3; b[b[0]] = i; }\n",
            ),
            1 << 48,
            ExecError::OutOfBounds {
                func: main(),
                inst: InstId(17),
                off: 66,
                size: 64,
            },
        ),
    ];
    // The verifier rules these out, so the IR is rewritten after lowering:
    // a load through an integer, a gep indexed by a float, a branch on an
    // integer.
    let mut p = kernel("", "b[i] = a[i] + i;");
    mutate(&mut p, 1, |i| match i {
        Inst::Load {
            ptr: Value::Inst(_),
            ty,
        } => Some(Inst::Load {
            ptr: Value::const_int(7),
            ty: ty.clone(),
        }),
        _ => None,
    });
    cases.push((
        "load through i64",
        p,
        1 << 48,
        type_mismatch(7, "ptr", "i64"),
    ));
    let mut p = kernel("", "b[i] = a[i] + i;");
    mutate(&mut p, 0, |i| match i {
        Inst::Gep { base, elem_ty, .. } => Some(Inst::Gep {
            base: *base,
            index: Value::const_float(1.5),
            elem_ty: elem_ty.clone(),
        }),
        _ => None,
    });
    cases.push(("gep by f64", p, 1 << 48, type_mismatch(8, "i64", "f64")));
    let mut p = kernel("", "if (a[i] < 5) { b[i] = i; }");
    mutate(&mut p, 1, |i| match i {
        Inst::CondBr {
            then_bb, else_bb, ..
        } => Some(Inst::CondBr {
            cond: Value::const_int(1),
            then_bb: *then_bb,
            else_bb: *else_bb,
        }),
        _ => None,
    });
    cases.push((
        "branch on i64",
        p,
        1 << 48,
        type_mismatch(11, "bool", "i64"),
    ));

    for (name, p, fuel, want) in &cases {
        let mut interp = Interpreter::with_fuel(&p.module, *fuel);
        let got = interp.run_main(&mut NullSink).expect_err("faults");
        assert_eq!(&got, want, "{name}: ir::interp");
        // The OpenMP plan follows the annotation whatever the (partial)
        // profile says, so the loop is chunked and workers do fault.
        let plan = build_plan(p, interp.profile(), Abstraction::OpenMp, 0.0);
        for workers in [1, 2] {
            let rt = Runtime::new(p, &plan)
                .workers(workers)
                .cost_threshold(0)
                .fuel(*fuel);
            assert_eq!(rt.realization().chunked, 1, "{name}: loop is chunked");
            let got = rt.run_main().expect_err("faults");
            assert_eq!(&got, want, "{name}: runtime, {workers} worker(s)");
        }
    }
}
