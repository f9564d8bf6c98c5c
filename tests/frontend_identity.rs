//! The front-end's output, pinned: the structural content key of every
//! bundled source, and the exact error text for a set of malformed ones.
//!
//! The content key hashes every block name, instruction, global and
//! directive clause of the compiled program, so a changed key means
//! `compile` produced a different program. The error table pins the
//! message and line of the first error, including which of two broken
//! functions reports first: source order wins.

use pspdg::frontend::compile;
use pspdg_nas::{fault_suite, synth, Class};
use pspdg_service::content_key;

/// `(name, content key)` for every bundled source.
const KEYS: &[(&str, u64)] = &[
    ("BT/Test", 0xfa0e7f663b5869c3),
    ("CG/Test", 0x0b8e4352f386e965),
    ("EP/Test", 0x99d89c426b9f9e32),
    ("FT/Test", 0xf792a345a03a4f18),
    ("IS/Test", 0x0735bde9bfcb6a82),
    ("LU/Test", 0xd52c41d33581fe84),
    ("MG/Test", 0xf405018b99f5eb02),
    ("SP/Test", 0x879b9f01edfc26e5),
    ("GMAX/Test", 0xda1380f22d357497),
    ("PIPE/Test", 0xee2a03ba5aaf909f),
    ("BT/Mini", 0x530d67441ccb2f08),
    ("CG/Mini", 0xccbaf332bbdc6200),
    ("EP/Mini", 0x0f6d6c9341a4026a),
    ("FT/Mini", 0xd0fcc589b1194f54),
    ("IS/Mini", 0x7067cad48bdd7928),
    ("LU/Mini", 0xcc7b84df43eb5069),
    ("MG/Mini", 0xa923b065130e07cd),
    ("SP/Mini", 0x7615ea4c4d22091e),
    ("GMAX/Mini", 0x77c56ffdbae68c17),
    ("PIPE/Mini", 0xdbfa2573c602159f),
    ("MODULE100", 0x5f2292e3241c9052),
    ("MODULE200", 0x09908d8586947918),
    ("MODULE400", 0x8e9b8ada7915da1c),
    ("WIDE16", 0x092db57e91be0ca9),
    ("WIDE32", 0xa418ac2a4555aa79),
    ("WIDE64", 0x73f9dd5f4e9363e1),
];

/// `(source, the error as `compile` prints it)`.
const ERRORS: &[(&str, &str)] = &[
    // Lexing.
    (
        "int main() { return 1 @ 2; }",
        "line 1: unexpected character '@'",
    ),
    (
        "#include <stdio.h>\nint main() { return 0; }",
        "line 1: unknown preprocessor line: include <stdio.h>",
    ),
    (
        "int main() { return 7; } /* trailing",
        "line 1: unterminated comment",
    ),
    (
        "int main() { return \u{e9}; }",
        "line 1: unexpected character '\u{e9}'",
    ),
    // Parsing.
    ("int main( {", "line 1: expected parameter type"),
    (
        "int main() {\n  return 1\n}",
        "line 3: expected ';', found RBrace",
    ),
    (
        "int main() { return (1 + ; }",
        "line 1: expected expression, found Semi",
    ),
    (
        "int main() { int a[4] = 0; return 0; }",
        "line 1: array declarations cannot have initializers",
    ),
    (
        "int main() { 1 = 2; return 0; }",
        "line 1: assignment target must be a variable or array element",
    ),
    (
        "int main() { return 0;",
        "line 1: unexpected end of input inside block",
    ),
    (
        "int g[0]; int main() { return 0; }",
        "line 1: expected array size, found IntLit(0)",
    ),
    // Arrays past the cell bound, global, local, and with a wrapping
    // dimension product.
    (
        "int a[4000000000]; int main() { a[3] = 7; return a[3]; }",
        "line 1: array larger than 1048576 cells",
    ),
    (
        "int f() {\n  int b[4000000000];\n  b[3] = 7; return b[3]; }\nint main() { return f(); }",
        "line 2: array larger than 1048576 cells",
    ),
    (
        "int a[4294967296][4294967296]; int main() { a[3][3] = 7; return a[3][3]; }",
        "line 1: array larger than 1048576 cells",
    ),
    // Globals past the total bound: four arrays at the per-array bound
    // fill it, the fifth does not fit.
    (
        "int a[1048576]; int b[1048576]; int c[1048576];\nint d[1048576], e[1048576];\nint main() { return 0; }",
        "line 2: globals larger than 4194304 cells in all",
    ),
    // Lowering.
    (
        "int main() {\n  return x;\n}",
        "line 2: in function 'main': unknown variable 'x'",
    ),
    (
        "int f(int a) { return a; }\nint main() { return f(1, 2); }",
        "line 2: in function 'main': 'f' takes 1 args, got 2",
    ),
    (
        "int main() { return sqrt(1.0, 2.0) > 0.0; }",
        "line 1: in function 'main': built-in 'sqrt' takes 1 args, got 2",
    ),
    (
        "void g() { }\nint main() { return g(); }",
        "line 2: in function 'main': void function 'g' used as a value",
    ),
    (
        "int main() { int i;\n#pragma omp for\ni = 0; return i; }",
        "line 2: in function 'main': worksharing pragma must annotate a for loop",
    ),
    (
        "int main() { int i;\n#pragma omp atomic\ni = 1; return i; }",
        "line 2: in function 'main': 'omp atomic' must annotate a compound update (x op= expr)",
    ),
    (
        "int main() { int a[4]; return a; }",
        "line 1: in function 'main': array 'a' used as a scalar",
    ),
    (
        "int main() { int i; int i; return 0; }",
        "line 1: in function 'main': duplicate variable 'i'",
    ),
    (
        "int f() { return 0; } int f() { return 1; }",
        "line 1: duplicate function 'f'",
    ),
    (
        "int main() { int i;\n#pragma omp parallel for private(q)\nfor (i = 0; i < 4; i++) { } return 0; }",
        "line 2: in function 'main': unknown variable 'q' in clause",
    ),
    // A syntax error anywhere comes before a semantic one, and after a
    // syntax error in an earlier body.
    (
        "int a() { return x; }\nint b() { return 1 }",
        "line 2: expected ';', found RBrace",
    ),
    (
        "int a() { return x; }\nint b() { return 1; }\nint 3;",
        "line 3: expected name, found IntLit(3)",
    ),
    (
        "int a() { return 1 }\nint b() { return 1; }\nint 3;",
        "line 1: expected ';', found RBrace",
    ),
    (
        "int g; int g;\nint main() { return (1; }",
        "line 2: expected ')', found Semi",
    ),
    (
        "int a() { return x; }\nint a() { return 1; }",
        "line 2: duplicate function 'a'",
    ),
    (
        "int main() { if (1) { return 1; }\n",
        "line 2: unexpected end of input inside block",
    ),
    // The 2nd and 4th functions are both wrong: the 2nd reports.
    (
        "int a() { return 0; }\n\
         int b() { return nope; }\n\
         int c() { return 2; }\n\
         int d() { return d(1); }\n\
         int main() { return a(); }",
        "line 2: in function 'b': unknown variable 'nope'",
    ),
];

fn bundled_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for class in [Class::Test, Class::Mini] {
        for b in fault_suite(class) {
            out.push((format!("{}/{class:?}", b.name), b.source));
        }
    }
    for n in [100, 200, 400] {
        out.push((format!("MODULE{n}"), synth::module(n, 32).source));
    }
    for bases in [16, 32, 64] {
        out.push((format!("WIDE{bases}"), synth::wide(bases).source));
    }
    out
}

#[test]
fn content_keys_of_bundled_sources_are_pinned() {
    let got: Vec<(String, u64)> = bundled_sources()
        .into_iter()
        .map(|(name, src)| {
            let program = compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, content_key(&program))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, k)| format!("    (\"{n}\", {k:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = KEYS.iter().map(|&(n, k)| (n.to_string(), k)).collect();
    assert_eq!(got, want, "new table:\n{table}");
}

#[test]
fn error_texts_are_pinned() {
    let got: Vec<String> = ERRORS
        .iter()
        .map(|(src, _)| match compile(src) {
            Ok(_) => format!("compiled: {src:?}"),
            Err(e) => e.to_string(),
        })
        .collect();
    let table: String = ERRORS
        .iter()
        .zip(&got)
        .map(|((src, _), e)| format!("    ({src:?}, {e:?}),\n"))
        .collect();
    let want: Vec<&str> = ERRORS.iter().map(|&(_, e)| e).collect();
    assert_eq!(got, want, "new table:\n{table}");
}
