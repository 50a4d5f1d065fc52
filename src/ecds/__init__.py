"""Error-correcting data structures.

Encoded static data structures (equality, membership, inner product,
substring) whose decoders answer queries with few bit probes and keep a
per-query error guarantee even when an adversary flips a bounded
fraction of the stored bits.  The harness measures those guarantees
empirically; the bounds module evaluates the matching lower bounds.
"""

from .bits import (
    BitString,
    BoundedWeightSpace,
    ball_size,
    dot_mod2,
    split_query,
)
from .bounds import (
    BoundReport,
    discrepancy_verify,
    ip_comm_lower_bound,
    ip_ds_lower_bound,
    membership_trivial_lb,
    one_probe_noise_threshold,
)
from .errors import (
    ConstructionError,
    EcdsError,
    EnumerationLimitError,
    InfeasibleSizeError,
    ParameterError,
    ProbeBudgetError,
    VerificationError,
)
from .hadamard import (
    EqualityScheme,
    HadamardCode,
    HadamardIp,
    MajorityAmplified,
    RandomLinearCode,
)
from .harness import (
    AdversaryStrategy,
    ExperimentReport,
    attack,
    clopper_pearson,
    estimate_error,
    sweep,
)
from .inner_product import (
    PolySharedIp,
    SubstringHadamard,
    TableIp,
    substring_length,
    table_ip_length,
)
from .membership import (
    BlockCodedMembership,
    ComposedInstance,
    MembershipInstance,
    OneProbeMembership,
)
from .oracle import (
    Codeword,
    CorruptionPattern,
    ProbeOracle,
    Scheme,
    corrupt,
    exact_error,
    probe_mass,
)
from .storage import load_pattern, load_structure, save_pattern, save_structure

__version__ = "0.1.0"
