#!/usr/bin/env python3
"""Self-test for tools/lint/lint.py: prove every rule actually fires.

Builds a synthetic repo tree in a temp dir, seeds exactly one violation per
rule (plus a clean control), and asserts each rule reports precisely its own
violation.  A rule that stops matching -- a typo in a regex, a renamed
directory -- fails this test instead of going silently dead.  Runs as the
`lint_selftest` ctest.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint  # noqa: E402


def make_tree(root):
    """A minimal clean repo skeleton the rules accept."""
    (root / "src" / "common").mkdir(parents=True)
    (root / "src" / "serve").mkdir(parents=True)
    (root / "src" / "core" / "simd").mkdir(parents=True)
    (root / "src" / "nn").mkdir(parents=True)
    (root / "tests").mkdir(parents=True)
    (root / "tools" / "lint").mkdir(parents=True)

    (root / "src" / "nn" / "tensor.h").write_text("#pragma once\n")
    (root / "src" / "nn" / "conv.h").write_text(
        "#pragma once\n#include \"nn/tensor.h\"\nclass ThreadPool;\n")
    (root / "src" / "nn" / "conv.cpp").write_text(
        "#include \"nn/conv.h\"\n#include <vector>\n")
    (root / "tests" / "conv_oracle.h").write_text(
        "#pragma once\n#include \"nn/conv.h\"\n")

    (root / "src" / "common" / "annotated_mutex.h").write_text(
        "#pragma once\n#include <mutex>\nclass Mutex { std::mutex mu_; };\n")
    (root / "src" / "serve" / "fault.h").write_text(
        "#pragma once\n"
        "// lint:allow-throw -- config-parse error, off the request path\n"
        "inline void parse_fail() { throw 1; }\n")
    (root / "src" / "core" / "simd" / "kernels_scalar.cpp").write_text(
        "// scalar oracle\nvoid k(float* p, int n) {\n"
        "  for (int i = 0; i < n; ++i) p[i] += 1.0f;\n}\n")
    (root / "tools" / "lint" / "scalar_oracle.sha256").write_text(
        lint.scalar_oracle_digest(root) + "  kernels_scalar.cpp\n")

    (root / ".gitignore").write_text(
        "# build trees\nbuild/\n.bench_build/\nBENCH_*_native.json\n")

    (root / "BENCH_accuracy.json").write_text(json.dumps(
        {"bench": "accuracy", "points": [{"conserved": True}]}))
    (root / "BENCH_conv.json").write_text(json.dumps(
        {"bench": "conv", "workload": {}, "schemes": []}))
    (root / "BENCH_serving.json").write_text(json.dumps(
        {"bench": "serving", "sections": {}, "bit_identical": True}))
    (root / "BENCH_server.json").write_text(json.dumps(
        {"bench": "server", "saturating": {}, "bit_identical": True,
         "soak": {}}))
    (root / "BENCH_tiles.json").write_text(json.dumps(
        {"bench": "design_space_explorer_tiles", "network": "resnet18",
         "configs": []}))


def expect(name, violations, rule, path_fragment):
    """Assert exactly one violation, from `rule`, naming `path_fragment`."""
    assert len(violations) == 1, (
        f"{name}: expected exactly 1 violation, got "
        f"{[str(v) for v in violations]}")
    v = violations[0]
    assert v.rule == rule, f"{name}: fired as {v.rule}, wanted {rule}"
    assert path_fragment in str(v.path), (
        f"{name}: fired on {v.path}, wanted ...{path_fragment}...")
    print(f"  ok: {name} -> {v}")


def in_fresh_tree(seed_fn):
    tmp = Path(tempfile.mkdtemp(prefix="lint_selftest_"))
    try:
        make_tree(tmp)
        seed_fn(tmp)
        return lint.run_all(tmp)
    finally:
        shutil.rmtree(tmp)


def main():
    # Control: the clean skeleton passes every rule.
    clean = in_fresh_tree(lambda root: None)
    assert not clean, (
        "control tree must be clean, got: " + "; ".join(map(str, clean)))
    print("  ok: clean control tree passes all rules")

    # raw-mutex: a std::mutex outside annotated_mutex.h.
    expect("raw-mutex", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_mutex.h").write_text(
            "#pragma once\n#include <cstdint>\n"
            "struct S { std::mutex mu_; };\n")
    )), "raw-mutex", "bad_mutex.h")

    # raw-mutex must NOT fire on the token in a comment or a string.
    commented = in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "ok_comment.h").write_text(
            "#pragma once\n// std::mutex is banned here\n"
            "inline const char* kMsg = \"std::lock_guard\";\n")
    ))
    assert not commented, (
        "raw-mutex fired on comment/string text: "
        + "; ".join(map(str, commented)))
    print("  ok: raw-mutex ignores comments and string literals")

    # serve-throw: an unmarked throw in src/serve.
    expect("serve-throw", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_throw.h").write_text(
            "#pragma once\ninline void f() { throw 42; }\n")
    )), "serve-throw", "bad_throw.h")

    # kernel-purity: an allocation inside a kernel TU.  Also perturbs the
    # oracle hash, so re-baseline first to isolate the purity rule.
    def seed_kernel(root):
        p = root / "src" / "core" / "simd" / "kernels_scalar.cpp"
        p.write_text(p.read_text() + "void bad() { auto* q = new int[4]; }\n")
        (root / "tools" / "lint" / "scalar_oracle.sha256").write_text(
            lint.scalar_oracle_digest(root) + "  kernels_scalar.cpp\n")
    expect("kernel-purity", in_fresh_tree(seed_kernel),
           "kernel-purity", "kernels_scalar.cpp")

    # scalar-oracle: oracle edited, baseline not updated.
    expect("scalar-oracle", in_fresh_tree(lambda root: (
        (root / "src" / "core" / "simd" / "kernels_scalar.cpp").write_text(
            "// \"cleaned up\" oracle\nvoid k(float* p, int n) {}\n")
    )), "scalar-oracle", "kernels_scalar.cpp")

    # include-hygiene: a quoted include that does not resolve under src/.
    expect("include-hygiene", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_include.h").write_text(
            "#pragma once\n#include \"no/such/header.h\"\n")
    )), "include-hygiene", "bad_include.h")

    # include-hygiene: a header missing #pragma once.
    expect("include-hygiene (pragma once)", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "no_pragma.h").write_text(
            "#ifndef NO_PRAGMA_H\n#define NO_PRAGMA_H\n#endif\n")
    )), "include-hygiene", "no_pragma.h")

    # oracle-independence: the test oracle reaching into the executor's
    # plans, and the reference conv including the api/ layer above it.
    def seed_oracle_include(root):
        (root / "src" / "nn" / "conv_plan.h").write_text("#pragma once\n")
        p = root / "tests" / "conv_oracle.h"
        p.write_text(p.read_text() + "#include \"nn/conv_plan.h\"\n")
    expect("oracle-independence", in_fresh_tree(seed_oracle_include),
           "oracle-independence", "conv_oracle.h")

    def seed_reference_include(root):
        (root / "src" / "api").mkdir()
        (root / "src" / "api" / "session.h").write_text("#pragma once\n")
        p = root / "src" / "nn" / "conv.cpp"
        p.write_text(p.read_text() + "#include \"api/session.h\"\n")
    expect("oracle-independence (api/)", in_fresh_tree(seed_reference_include),
           "oracle-independence", "conv.cpp")

    # ... and an oracle file that moved must not leave the rule silently
    # guarding nothing.
    expect("oracle-independence (missing file)", in_fresh_tree(
        lambda root: (root / "src" / "nn" / "conv.cpp").unlink()),
        "oracle-independence", "conv.cpp")

    # bench-schema: a committed artifact recording a broken invariant.
    expect("bench-schema", in_fresh_tree(lambda root: (
        (root / "BENCH_server.json").write_text(json.dumps(
            {"bench": "server", "saturating": {},
             "bit_identical": False, "soak": {}}))
    )), "bench-schema", "BENCH_server.json")

    # bench-schema: a required artifact that .gitignore excludes (the file
    # exists locally, but a clean checkout would not have it).
    def ignore_artifact(root):
        p = root / ".gitignore"
        p.write_text(p.read_text() + "BENCH_accuracy.json\n")
    expect("bench-schema (gitignored)", in_fresh_tree(ignore_artifact),
           "bench-schema", ".gitignore")

    # ... and a later `!` line re-including it clears the finding.
    def reinclude_artifact(root):
        p = root / ".gitignore"
        p.write_text(p.read_text() + "BENCH_*.json\n!BENCH_*.json\n")
    reincluded = in_fresh_tree(reinclude_artifact)
    assert not reincluded, (
        "bench-schema fired on a re-included artifact: "
        + "; ".join(map(str, reincluded)))
    print("  ok: bench-schema honours .gitignore negation")

    print("lint_selftest: every rule fires on its seeded violation.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
