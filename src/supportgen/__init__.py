"""supportgen: grid-world instruction benchmark generation and support-set
engineering.

The package builds grid-world instruction-following datasets with
compositional holdout splits, constructs in-context-learning support sets by
six strategies, and computes the support-quality, similarity and linguistic
statistics used to analyze them.
"""

__version__ = "0.5.3"

from .world import (  # noqa: F401
    Action,
    AgentPose,
    Heading,
    ObjectSpec,
    Position,
    WorldState,
    new_random_state,
    simulate,
)
from .grammar import (  # noqa: F401
    Instruction,
    TargetResolution,
    parse,
    realize,
    resolve_target,
)
from .planner import apply_adverb, apply_verb, plan_navigation, solve  # noqa: F401
from .dataset import (  # noqa: F401
    Dataset,
    DatasetConfig,
    Example,
    Split,
    Support,
    SupportSet,
    classify,
    export_dataset,
    export_icl_records,
    generate_dataset,
    import_dataset,
)
from .permuter import (  # noqa: F401
    Permutation,
    apply,
    compress_notation,
    expand_notation,
    invert,
    sample_permutation,
)
from .instruction_model import InstructionModel, fit  # noqa: F401
from .engines import (  # noqa: F401
    ExternalSolver,
    OracleSolver,
    covr_supports,
    demogen_supports,
    gandr_supports,
    heuristic_supports,
    other_states_supports,
    random_supports,
)
