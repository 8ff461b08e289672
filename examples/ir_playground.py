"""Writing HorseIR by hand and watching the optimizer work.

Parses the paper's example query, written as HorseIR text without any
frontend, then walks it through every compiler stage: verification, the
optimization pipeline (with pass statistics), segmentation, kernel
generation, and execution at both levels.  The mask is declared
``unknown`` (HorseIR's ``?``), so compilation first decides its type.

Run:  python examples/ir_playground.py
"""

import numpy as np

from repro.core import from_numpy
from repro.core.analysis.typeshape import resolve_types
from repro.core.compiler import compile_module
from repro.core.optimizer import optimize
from repro.core.parser import parse_module
from repro.core.printer import print_method, print_module
from repro.core.verify import verify_module

SOURCE = """
module Playground {
    // A UDF written as its own method, to exercise inlining.
    def revenue(price:f64, discount:f64): f64 {
        r:f64 = @mul(price, discount);
        return r;
    }
    def main(price:f64, discount:f64): f64 {
        mask:unknown = @geq(discount, 0.05:f64);
        kept_price:f64 = @compress(mask, price);
        kept_disc:f64 = @compress(mask, discount);
        contribution:f64 = @revenue(kept_price, kept_disc);
        // A dead computation for backward slicing to remove.
        unused:f64 = @sqrt(price);
        total:f64 = @sum(contribution);
        return total;
    }
}
"""


def main() -> None:
    module = parse_module(SOURCE)
    verify_module(module)
    print("Parsed module (verified):")
    print(print_module(module))

    resolved = resolve_types(module)
    print("Types resolved (the `unknown` mask is now bool):")
    print(print_method(resolved.methods["main"]))

    optimized, stats = optimize(resolved)
    print(f"Optimizer: rounds={stats.rounds}, "
          f"methods inlined away={stats.inlined_methods_removed}, "
          f"passes={stats.passes_applied}")
    print(print_module(optimized))

    program = compile_module(module, "opt")
    print(f"Fused segments: {program.report.fused_segments} "
          f"covering {program.report.fused_statements} statements")
    for source in program.kernel_sources:
        print(source)

    rng = np.random.default_rng(3)
    price = from_numpy(rng.uniform(100, 1000, 1_000_000))
    discount = from_numpy(np.round(rng.uniform(0, 0.1, 1_000_000), 2))

    naive = compile_module(module, "naive")
    expected = naive.run(args=[price, discount])
    actual = program.run(args=[price, discount])
    print(f"naive  = {expected.item():.2f}")
    print(f"opt    = {actual.item():.2f}")
    assert abs(expected.item() - actual.item()) < 1e-6 * abs(
        expected.item())
    print("naive and optimized agree.")


if __name__ == "__main__":
    main()
