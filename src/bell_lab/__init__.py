"""Monte Carlo laboratory for finite-sample Bell-inequality statistics."""

from .core import (MINUS, NO_COUNT, OUTCOMES, PLUS, Events, PairedTrial,
                   RngStream, StationEvent, Trials, tabulate, wrap_angle)
from .sources import (AngleJitter, BallVariant, ContextualParams,
                      InstructionDist, Spreadsheet4, contextual_batch,
                      generate_cfd_spreadsheet, generate_tennis_balls,
                      missing_pairs, partial_anticorr, singlet_pairs,
                      smeared_pairs, strict)
from .pairing import pair_random, pair_systematic, pair_time_window
from .estimators import (ChshEstimate, CounterSet, EberhardCounts,
                         bell_counter_test, chsh, chsh_from_counters,
                         correlation, eberhard_counts, eberhard_j,
                         vongher_counters)
from .randi import (CampaignReport, gill_campaign, gill_subsample,
                    vongher_campaign, vongher_run)
from .bellgame import (PERFECT_SCRIPT, FixedProgramStrategy, QuantumStrategy,
                       RandomProgramStrategy, ScriptedStrategy,
                       counterfactual_table, play_game)
from .stats import (bin_statistic, breakdown_demo, chebyshev_confidence,
                    default_breakdown_spec, homogeneity_battery,
                    homogeneity_test, sem)

__version__ = "0.1.0"
