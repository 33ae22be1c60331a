"""Constructive arbitrage detection and deflator pricing in discrete time.

The core question is geometric: a one-period market admits no arbitrage
exactly when its price vector lies in the closed cone spanned by the
payoff vectors of the outcomes.  Projecting onto that cone either
produces nonnegative weights (a price deflator, which then prices and
hedges other payoffs) or the gap direction (an explicit arbitrage).
The same projection runs level by level on multi-period trees, and the
deflator calculus extends to curves, swaps, futures, and closed-form
models.
"""

from .cone import (DEFAULT_TOL, ArbitrageCertificate, ConeProjection,
                   Deflator, OnePeriodMarket, PositionReport,
                   deflator_from_projection, find_arbitrage, nnls,
                   project_to_cone, verify_position)
from .exceptions import (AlgebraMismatch, ArbitrageInInput, DeflatorError,
                         DeflatorZeroBlock, DimensionMismatch, InvalidInterval,
                         MissingMaturity, NonConvergence, NonpositiveRate,
                         NonPredictableDeflator, NotClosedOut, NotCoarser,
                         NotSelfFinancing, SingularGram, SpecFileError,
                         TruncationFailure, ZeroCost)
from .filtration import (Algebra, FAMeasure, Filtration, SimpleFunction,
                         binary_tree_filtration, pairing, product, random_walk,
                         restrict)
from .market_files import (MarketSpec, load_market_spec, parse_document,
                           render_document)
from .models import (BachelierParams, GBMParams, GBMPutQuote,
                     HedgeErrorEstimate, KolmogorovLaw, LevyModelParams,
                     PutQuote, atm_call_correlation, bachelier_put,
                     cdf_from_charfn, gbm_put, hedge_error_estimate, levy_put)
from .multi_period import (AccountProcess, ArbitrageVerdict, CheckResult,
                           DeflatorSequence, MarketPanel, NodeArbitrage,
                           ReplicationResult, Strategy, account_process,
                           binomial_stock_panel, check_deflator,
                           deterministic_panel, find_tree_deflator,
                           is_arbitrage_strategy, panel_from_one_period,
                           propagate_prices, replication_cost)
from .one_period import (HedgeResult, least_squares_hedge, price_payoff,
                         realized_return)
from .rates import (DiscountCurve, HoLeeParams, Schedule,
                    ShortRateProcess, bond_price, deflators_from_short_rate,
                    floating_leg_value, forward_price, forward_rate,
                    futures_convexity, futures_panel, futures_quotes,
                    ho_lee_convexity, ho_lee_discount,
                    ho_lee_stochastic_discount, load_discount_curve,
                    par_coupon, short_rate_panel, swap_par, zcb_price)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
