"""Sequential ICI emulator and dynamic statistics.

Two backends share one contract (bit-identical
:class:`~repro.emulator.machine.EmulationResult` data):

* ``reference`` — the plain interpreter loop in
  :mod:`repro.emulator.machine`;
* ``codegen`` — the compiled-function backend in
  :mod:`repro.emulator.codegen` (the default; the whole program emitted
  as one Python function with registers as locals, an order of
  magnitude faster than the reference loop).

:func:`run_program` selects between them (``backend=`` argument or the
``REPRO_EMULATOR_BACKEND`` environment variable).
"""

from repro.emulator.machine import (
    BACKENDS,
    Emulator,
    EmulationResult,
    EmulatorError,
    resolve_backend,
    run_program,
    render_term,
    decode,
)
from repro.emulator.codegen import CodegenEmulator, codegen_code
from repro.emulator.debug import DebugMachine

__all__ = [
    "BACKENDS",
    "Emulator",
    "EmulationResult",
    "EmulatorError",
    "CodegenEmulator",
    "codegen_code",
    "resolve_backend",
    "run_program",
    "render_term",
    "decode",
    "DebugMachine",
]
