"""Executable collaborative components with transform-based convergence
checking, composition, and a replicated-sites simulator."""

from .bounds import Bounds, DEFAULT_BOUNDS
from .cells import CellComponentSpec, cchar, ccolor, cnat, make_cell_component
from .checker import (CheckReport, check_consistency, check_cp1,
                      check_cp1_restricted, check_cp2, check_cp2_restricted)
from .composition import (ComposedComponent, dynamic_compose, is_update,
                          make_update, static_compose, transform_update,
                          update_addr, update_child_method, update_old)
from .kernel import (Component, apply, apply_seq, enabled, legal, observe,
                     transform, transform_seq)
from .patterns import (AdmissibilityReport, CompositionPattern, Morphism,
                       check_admissible, instantiate, set_pattern,
                       string_pattern, token_component)
from .registry import build
from .simulator import (RunReport, Scenario, integrate, load_scenario,
                        run_scenario)
from .values import (NOP, Cell, Method, Opaque, Product, SeqOf, SetOf,
                     decode_method, decode_state, display, product, seq_of,
                     set_of, value_from_json, value_to_json)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
