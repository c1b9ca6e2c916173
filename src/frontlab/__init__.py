"""frontlab: a numerical laboratory for nonlocal-dispersal predator-prey
fronts in a habitat shifting at constant speed.

The lab simulates the coupled integro-differential system, computes the
variational spreading speeds of both species, verifies the moving-window
sub-solution construction, and measures persistence in moving frames.
"""

from .dynamics import (BumpSpec, Grid, Params, State, Trajectory, dt_max,
                       grid_from_spacing, make_initial, nonlocal_apply, rhs,
                       simulate, step)
from .habitat import (HabitatProfile, HabitatValidation, constant_one,
                      logistic, piecewise_linear)
from .habitat import validate as validate_habitat
from .hypotheses import HypothesisReport, check_hypotheses
from .kernels import (Kernel, Stencil, exp_integral, load_tabulated, raised_cosine,
                      smooth_bump, tabulated)
from .observers import (FrameBandSpec, LevelSetSeries, PersistenceReport,
                        SpeedEstimate, decay_sup, estimate_speed, frame_band_min,
                        level_set_position, level_set_series, theorem_band)
from .speeds import SpeedProblem, SpeedResult, SystemSpeeds, min_speed, system_speeds
from .subsolution import (SubsolutionParams, SubsolutionReport,
                          amplitude_speed_bound, construct_subsolution,
                          match_decay_rate, max_linear_rate, verify_subsolution)

__version__ = "0.1.0"
