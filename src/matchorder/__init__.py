"""Decision procedures for a move-generated order on matchings, its
permutation counterpart, and the permutation graphs that separate them."""
