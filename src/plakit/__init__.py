"""plakit: two-level logic on programmable logic arrays.

Boolean equations and finite-state machines in; programmed fuse maps,
exhaustive verification, and stuck-fault test vectors out.
"""

__version__ = "0.1.0"

from .device import (
    Fault,
    PlaProfile,
    PlaState,
    blank_device,
    enumerate_faults,
    eval_pla,
    find_test_vector,
    inject_fault,
    output_masks,
    render_crosspoint_diagram,
    set_crosspoint,
    set_polarity,
)
from .errors import CapacityError, FormatError, ParseError, PlakitError
from .expr import (
    And,
    Const,
    Not,
    Or,
    Var,
    evaluate,
    format_expression,
    parse_equations,
    parse_expression,
    variables,
)
from .fit import (
    compile_equations,
    emit_fusemap,
    fit,
    pad_input_names,
    parse_fusemap,
    read_berkeley_pla,
    write_berkeley_pla,
)
from .fsm import (
    ControllerImage,
    Fsm,
    StateEncoding,
    Transition,
    default_encoding,
    emit_encoding,
    fsm_to_covers,
    parse_encoding,
    parse_kiss2,
    simulate_controller,
    simulate_fsm,
    synthesize_controller,
    write_kiss2,
)
from .logic import (
    Cover,
    TruthTable,
    canonical_pos,
    canonical_sop,
    counterexample,
    cover_eval,
    cover_from_expr,
    cube_contains,
    equivalent,
    minterm_cube,
    table_from_expr,
    table_from_rows,
)
from .minimize import (
    MinimizeSpec,
    MultiOutputCover,
    minimize,
    minimum_cover,
    prime_implicants,
    share_terms,
)
