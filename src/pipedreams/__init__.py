"""Exact computational algebra for Schubert and Grothendieck polynomials,
pipe dreams, bumpless pipe dreams, Fubini words, and the associated
quotient-ring verification toolkit."""

__version__ = "0.1.0"

from .combinat import (  # noqa: F401
    Permutation,
    Word,
    enumerate_fubini,
    fubini_count,
    stirling2,
)
from .poly import (  # noqa: F401
    Poly,
    cache_info,
    elementary_symmetric,
    grassmannian_e_expansion,
    grothendieck,
    grothendieck_double,
    grothendieck_of_word,
    mask_cache_info,
    schubert,
    schubert_double,
    schubert_of_word,
)
from .pipedream import (  # noqa: F401
    PipeDream,
    row_cache_info,
    sum_cache_info,
    RectangularityViolation,
    WordPipeDream,
    enumerate_all,
    enumerate_reduced,
    enumerate_word_pds,
    pd_grothendieck,
    pd_schubert,
    top_pipe_dream,
    truncate_to_word,
    word_pd_grothendieck,
    word_pd_schubert,
)
from .bpd import (  # noqa: F401
    Bpd,
    BpdRectangularityViolation,
    WordBpd,
    bpd_grothendieck,
    bpd_row_cache_info,
    bpd_schubert,
    diagram_bpd,
    enumerate_all_bpd,
    enumerate_reduced_bpd,
    enumerate_word_bpds,
    truncate_to_word_bpd,
    word_bpd_grothendieck,
    word_bpd_schubert,
)
from .rings import (  # noqa: F401
    BasisFailure,
    DeskScaleError,
    IntegerLattice,
    chow_class_of_word,
    desk_scale_pairs,
    elementary_ideal_generators,
    grothendieck_ideal_generators,
    hnf,
    ideals_equal,
    k0_class_of_word,
    project_to_snk,
    rnk_rank,
    snf_invariants,
    verify_grothendieck_basis,
    verify_rings,
)
from .geometry import (  # noqa: F401
    PatternMatrix,
    ReductionError,
    cell_dimension_report,
    fits_pattern,
    matrix_from_json,
    matrix_to_json,
    pattern_matrix,
    random_matrix,
    reduction,
    word_of_matrix,
)
from . import bpd, pipedream, poly


def clear_caches():
    """Empty the package's caches, one `poly._Memo` each, and zero their
    counts: the polynomial cache (`cache_info()`), the memo of
    the diagram lists of pipe dreams and BPDs, which the word views read too
    (`row_cache_info()`), the memo of the sums by rows (`sum_cache_info()`),
    the BPD row memo of labelled states (`bpd_row_cache_info()`), and the
    memo of the divided differences' step masks (`mask_cache_info()`).
    These are all the caches the package has."""
    for memo in (poly._CACHE, poly._MASKS, pipedream._ROWS, pipedream._SUMS,
                 bpd._ROWS):
        memo.clear()
