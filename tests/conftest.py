import hypothesis
from hypothesis import strategies as st

from dpconc.measures import canonicalize

hypothesis.settings.register_profile(
    "solver", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("solver")

# rational grids keep hypothesis inputs exactly representable and force
# duplicate-value merging to actually trigger
atom_values = st.integers(-20, 20).map(lambda i: i / 4.0)
atom_weights = st.integers(0, 16).map(lambda i: i / 16.0)
raw_atoms = st.lists(st.tuples(atom_values, atom_weights), min_size=1, max_size=8).filter(
    lambda pairs: sum(w for _, w in pairs) > 0
)


@st.composite
def measures(draw, min_atoms: int = 1, max_atoms: int = 8):
    pairs = draw(
        st.lists(
            st.tuples(atom_values, atom_weights),
            min_size=min_atoms,
            max_size=max_atoms,
        ).filter(lambda ps: sum(w for _, w in ps) > 0)
    )
    return canonicalize(pairs)

