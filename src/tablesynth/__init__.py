"""Programming-by-example synthesis of SQL-like table-transformation
programs with nested value computation."""

from .errors import (
    BenchmarkFormatError,
    EngineInternalError,
    FeatureMissError,
    IntRangeError,
    ProgramParseError,
    RowLookupError,
    SchemaError,
    TableSynthError,
    ValidationFailure,
)
from .table import (
    ColumnType,
    Id,
    Schema,
    Table,
    Value,
    append_column,
    fetch,
    loads_table,
    dumps_table,
    project,
    table_from_json,
    table_to_json,
    union,
)
from .features import (
    ConcatProgram,
    ExtractSpec,
    FeatureFamily,
    FeatureInstance,
    TokenClass,
    apply_feature,
    enumerate_feature_families,
    extract,
    solve_concat,
    solve_div,
    solve_linear,
    solve_mod,
    solve_substring,
    solve_sum,
)
from .dsl import (
    ActionSignature,
    And,
    ColP,
    ConstP,
    Filter,
    GroupJoin,
    Join,
    MutateP,
    Not,
    Or,
    Order,
    Program,
    SymbolApp,
    Yield,
    eval_predicate,
    exec_program,
    validate_program,
)
from .progtext import (
    format_feature,
    format_program,
    parse_feature,
    parse_program,
)
from .synth import (
    Hypothesis,
    SynthResult,
    SynthSettings,
    SynthTask,
    generate_hypotheses,
    score_subtable,
    synthesize,
    synthesize_forward_only,
)
from .domains import (
    BenchmarkCase,
    DomainSpec,
    builtin_domains,
    check_overfit,
    load_benchmark,
    load_benchmark_dir,
)

__version__ = "0.1.0"
