"""Fused-kernel code generation and the chunked executor.

Each fused segment becomes one generated Python function evaluating the
whole chain per chunk (no full-column intermediates), and the executor
runs the chunks in order on the caller's thread.  The paper's HorseIR→C
backend with OpenMP is :mod:`repro.core.codegen.cgen`; threads are its.
"""

from repro.core.codegen.pygen import CompiledKernel, generate_kernel  # noqa: F401
