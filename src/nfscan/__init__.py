"""nfscan: magnetic near-field PCB scan simulation and probe calibration.

Simulates the H field radiated by microstrip traces over a ground plane
(Biot-Savart segment sums plus image theory), models a square-loop probe's
port response, derives IEC 61967-1 style antenna-factor tables from
transmission sweeps, and converts scanned port voltages into field maps,
1-D profiles and 2-D graymap cartographies.

Conventions: SI units internally; RMS phasors with time factor
exp(+j*2*pi*f*t); ground plane at z=0, traces at z=substrate.h.
"""

__version__ = "0.1.0"

from .calibration import (CFTable, calibrate, cf_from_s21, field_from_voltage,
                          geometry_term_db)
from .config import center_over_trace
from .errors import ConfigError, ParseError, SingularityError
from .fields import current_distribution, eps_eff_hammerstad
from .formats import (FieldMap, NetworkData, parse_cf_csv, parse_map_csv,
                      parse_touchstone, render_pgm, write_cf_csv, write_map_csv,
                      write_touchstone)
from .model import (DriveSpec, FrequencySweep, LoopProbe, ScanGrid, Substrate,
                    TracePath)
from .scan import (MapStats, ScanResult, apply_calibration_to_scan, extract_profile,
                   map_stats, probe_transfer, run_simulated_scan)

__all__ = [name for name in dir() if not name.startswith("_")]
