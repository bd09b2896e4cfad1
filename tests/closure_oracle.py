"""The subgroup closure as it stood before row images, kept as a test oracle.

Each new member x is multiplied on the right by every generator h as one
full-matrix `linalg.col_ops` call.  `groups.subgroup_closure` now gives each
distinct row an integer id, maps each id through each generator once, and
builds products as tuples of image ids, decoded into matrices at the end;
the property in `test_groups.py` holds the two to the same members, words,
dict order and cap behaviour.

With conjugators, each member x is also mapped to e x e^-1 for each letter e
(`sandwich`): the one-search normal closure that `materialized_subgroup`
used before it grew normal closures one generator at a time.  It is checked
against a dense search on arbitrary letters, and the normal closures against
it with the conjugators of every root.
"""
from chevlab import linalg
from chevlab.groups import (
    CapExceeded,
    ElementaryWord,
    GroupElement,
    GroupError,
    sandwich,
)


def subgroup_closure(generators, cap: int, track_words: bool = False,
                     conjugators=()):
    """Multiplicative closure of the generators by full-matrix column operations."""
    gens = list(generators)
    if not gens:
        raise GroupError("closure needs at least one generator")
    if not track_words:
        gens = [(g, None) for g in gens]
    first = gens[0][0]
    rep, ring = first.rep, first.ring
    actions = []
    for h, hw in gens:
        first._check(h)
        actions.append((linalg.col_ops, linalg.delta_entries(ring, h.mat), hw))

    def conjugate(ring, x, c):
        return sandwich(rep, ring, [c], x, [c])

    actions += [(conjugate, c, None) for c in conjugators]
    ident = rep.identity(ring)
    words = {ident: ElementaryWord(rep, ring) if track_words else None}
    if cap < 1:  # the identity counts against the cap
        raise CapExceeded(f"closure exceeded cap {cap}")
    rows = {r: r for r in ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            xw = words[x]
            for act, arg, hw in actions:
                y = act(ring, x, arg)
                if y not in words:
                    y = tuple([rows.setdefault(r, r) for r in y])
                    words[y] = xw + hw if track_words else None
                    nxt.append(y)
                    if len(words) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    if track_words:
        return {GroupElement(rep, ring, x): w for x, w in words.items()}
    return frozenset(GroupElement(rep, ring, x) for x in words)
