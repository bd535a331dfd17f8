"""Handwritten CPS programs and scalable generator families.

Conventions: user functions take their continuation as the last
parameter; the top-level halt continuation is ``(lambda (r) (exit))``.
Programs in :data:`PROGRAMS` are closed, terminating (except ``omega``)
and small enough for the concrete collecting semantics; the generators
below produce the parameterized families the benchmarks sweep over.
"""

from __future__ import annotations

from repro.cps.parser import parse_cexp
from repro.cps.syntax import Call, CExp, Exit, Lam, Ref

HALT = "(lambda (r) (exit))"

#: The identity function applied once: the smallest sanity check.
IDENTITY = f"""
((lambda (x k) (k x))
 (lambda (z j) (j z))
 {HALT})
"""

#: Identity applied to itself, then to a second lambda: two call sites.
ID_ID = f"""
((lambda (id k)
   (id id (lambda (v) (v (lambda (w jw) (jw w)) k))))
 (lambda (x j) (j x))
 {HALT})
"""

#: The Might-Smaragdakis-Van Horn example behind the k-CFA paradox:
#: one identity applied at two sites.  0CFA conflates the two results;
#: 1CFA keeps them apart (experiments E3, E7).
MJ09 = """
((lambda (id k)
   (id (lambda (z kz) (kz z))
       (lambda (a)
         (id (lambda (y ky) (ky y))
             (lambda (b) (exit))))))
 (lambda (x j) (j x))
 (lambda (r) (exit)))
"""

#: The divergent omega combinator in CPS: the concrete machine loops
#: forever; every abstract analysis terminates on it.
OMEGA = f"""
((lambda (x k) (x x k))
 (lambda (y j) (y y j))
 {HALT})
"""

#: Self-application through a shared helper; stresses closure capture.
SELF_APPLY = f"""
((lambda (apply k)
   (apply (lambda (g jg) (g (lambda (q jq) (jq q)) jg)) k))
 (lambda (f j) (f f j))
 {HALT})
"""

PROGRAMS: dict[str, CExp] = {}


def _register(name: str, source: str) -> None:
    PROGRAMS[name] = parse_cexp(source)


_register("identity", IDENTITY)
_register("id-id", ID_ID)
_register("mj09", MJ09)
_register("omega", OMEGA)
_register("self-apply", SELF_APPLY)


def program(name: str) -> CExp:
    """Fetch a corpus program by name."""
    return PROGRAMS[name]


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------


def id_chain(n: int) -> CExp:
    """``n`` nested applications of one identity function to ``n`` distinct lambdas.

    Monovariant (0CFA) analysis merges all ``n`` arguments through the
    shared parameter ``x``; 1CFA distinguishes the call sites.  The
    average flow-set size therefore separates the two analyses cleanly
    (experiments E3/E7), and the program's size grows linearly for
    scaling curves.
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    # nodes are canonical at birth (see repro.util.intern): a second
    # build of the same chain is pointer-equal to the first, so cache
    # lookups never fall back to a structural comparison that recurses
    # through the whole (depth-n) term
    body: CExp = Exit()
    for i in reversed(range(n)):
        distinct_arg = Lam((f"u{i}", f"ju{i}"), Call(Ref(f"ju{i}"), (Ref(f"u{i}"),)))
        body = Call(Ref("id"), (distinct_arg, Lam((f"r{i}",), body)))
    identity = Lam(("x", "j"), Call(Ref("j"), (Ref("x"),)))
    return Call(Lam(("id", "k"), body), (identity, Lam(("r",), Exit())))


def id_chain_edited(n: int) -> CExp:
    """One incremental edit applied to :func:`id_chain`: append a link at the entry.

    The canonical warm-start workload: a fresh identity application is
    wrapped *around* the chain, so every sub-term of ``id_chain(n)`` is
    shared (pointer-identical, thanks to interning) with the unedited
    program, and after one application step the machine configurations
    coincide with the original run's -- exactly the shape of a small
    edit to a large program.  Editing the chain at its inner end would
    instead rebuild every enclosing term, which is the
    whole-program-rewrite case warm starts are *not* for (see
    PERFORMANCE.md, "Caching and warm starts").
    """
    base = id_chain(n)
    extra = Lam(("w0", "jw0"), Call(Ref("jw0"), (Ref("w0"),)))
    return Call(Lam(("pre",), base), (extra,))


def heap_clone(n: int) -> CExp:
    """A per-state-store (heap-cloning) blowup family (experiment E4).

    A one-field "cell" is built by applying a maker *twice through the
    same call site* (the ``ap`` trampoline), so under any k-CFA the
    cell's captured variable ``w`` holds two closures at a single
    address.  The returned getter is then read ``n`` times, each read
    binding a *fresh* variable nondeterministically to one of the two
    closures.  With per-state stores the fixed point holds one store per
    choice prefix -- ``Theta(2^n)`` configurations -- while the
    single-threaded store (6.5) stays linear.  This realizes, on a
    family our machines can sweep, the exponential-vs-polynomial
    separation the paper attributes to store cloning.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    body: CExp = Exit()
    for i in reversed(range(n)):
        body = Call(Ref("g0"), (Ref("g0"), Lam((f"r{i}",), body)))
    f1 = Lam(("p1", "jp1"), Call(Ref("jp1"), (Ref("p1"),)))
    f2 = Lam(("p2", "jp2"), Call(Ref("jp2"), (Ref("p2"),)))
    seeded = Call(
        Ref("ap"),
        (
            Ref("mk"),
            f1,
            Lam(
                ("s0",),
                Call(Ref("ap"), (Ref("mk"), f2, Lam(("g0",), body))),
            ),
        ),
    )
    trampoline = Lam(("g", "v", "k"), Call(Ref("g"), (Ref("v"), Ref("k"))))
    maker = Lam(
        ("w", "j"),
        Call(Ref("j"), (Lam(("q", "jq"), Call(Ref("jq"), (Ref("w"),))),)),
    )
    return Call(Lam(("ap", "mk", "k0"), seeded), (trampoline, maker, Lam(("r",), Exit())))


def deep_call_tower(n: int) -> CExp:
    """``n`` distinct unary workers chained linearly; ``n`` call sites,
    no merging.  A pure size-scaling family for timing curves."""
    if n < 1:
        raise ValueError("tower height must be at least 1")
    body: CExp = Exit()
    for i in reversed(range(n)):
        body = Call(Ref(f"f{i}"), (Lam((f"v{i}",), body),))
    # Build: ((lambda (f0 ... f{n-1} k) body) w0 ... w{n-1} halt)
    params = tuple(f"f{i}" for i in range(n)) + ("k",)
    workers = tuple(
        Lam((f"c{i}",), Call(Ref(f"c{i}"), (Lam((f"z{i}", f"jz{i}"), Call(Ref(f"jz{i}"), (Ref(f"z{i}"),))),)))
        for i in range(n)
    )
    return Call(Lam(params, body), workers + (Lam(("r",), Exit()),))


def generated_families() -> dict:
    """Small representatives of every generator, for smoke tests."""
    return {
        "id-chain-4": id_chain(4),
        "heap-clone-4": heap_clone(4),
        "call-tower-4": deep_call_tower(4),
    }
