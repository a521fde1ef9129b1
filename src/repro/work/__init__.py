"""Work specification (paper section 3.1.1).

Two backends implement ``do_work``:

* :func:`repro.work.do_work` -- virtual time on the simulation kernel
  (exact, deterministic; the default for the test suite),
* :class:`repro.work.RealWorker` -- the paper's calibrated random-access
  busy loop against wall-clock time (for calibration experiments).
"""

from .io import IO_READ_REGION, IO_WRITE_REGION, do_io
from .parallel import par_do_mpi_work, par_do_omp_work
from .real import ARRAY_ELEMENTS, Calibration, RealWorker
from .virtual import WORK_REGION, do_work

__all__ = [
    "ARRAY_ELEMENTS",
    "IO_READ_REGION",
    "IO_WRITE_REGION",
    "Calibration",
    "RealWorker",
    "WORK_REGION",
    "do_io",
    "do_work",
    "par_do_mpi_work",
    "par_do_omp_work",
]
