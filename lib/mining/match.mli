(** Rooted subgraph-isomorphism matching of a pattern against an
    application graph — the matcher behind instruction selection
    (Section 4.1.2) and the test oracle for the miner.

    A match binds every internal (compute/constant) pattern node to a
    distinct application node with the same operation, such that every
    internal pattern edge is mirrored with the same port (argument
    orders of commutative operations may be swapped), and every pattern
    input is bound consistently to an application node (shared pattern
    inputs must bind to one application node).  With [wild_consts],
    constant values and LUT truth tables in the pattern match any
    constant/table in the graph. *)

type binding = {
  nodes : (int * int) list;
  (** internal pattern node id -> application node id *)
  inputs : (int * int) list;
  (** pattern input node id -> application node id feeding it *)
}

type plan
(** A pattern compiled once for many searches: its internal nodes, the
    anchor (last internal node in canonical order) and its operation,
    its sinks, and preallocated pattern-indexed search state.  A plan
    may serve any number of sequential searches but is not safe to
    share between concurrent ones. *)

val compile : ?wild_consts:bool -> Pattern.t -> plan

val sinks : plan -> int list
(** Pattern node ids feeding the pattern's outputs. *)

val anchor_matches : plan -> Apex_dfg.Graph.t -> root:int -> bool
(** Whether [root]'s operation matches the anchor's: the allocation-free
    test every search starts with. *)

val run :
  ?first_only:bool ->
  plan ->
  Apex_dfg.Graph.t ->
  succs:int list array ->
  root:int ->
  binding list
(** All bindings anchoring the pattern at [root], given the graph's
    successor lists ([Apex_dfg.Graph.succs g], computed once by the
    caller).  Bindings come in depth-first search order: the anchor's
    unswapped port order before the swapped one, each argument resolved
    in port order, and each unbound consumer tried over its producer's
    successors in list order. *)

val matches_at :
  ?first_only:bool ->
  ?wild_consts:bool ->
  Pattern.t ->
  Apex_dfg.Graph.t ->
  root:int ->
  binding list
(** All bindings anchoring the pattern's last canonical internal node at
    application node [root] ([first_only] stops at the first).
    Requires the pattern's internal nodes to be connected through
    internal edges, which holds for all mined patterns.  Compiles the
    pattern and computes the graph's successors on every call; callers
    searching many roots use {!compile} and {!run}. *)

val match_at : Pattern.t -> Apex_dfg.Graph.t -> root:int -> binding option
(** Try to bind the pattern such that its (unique) last internal node in
    canonical order maps to application node [root].  Patterns with
    several sinks are matched by their canonical last node. *)

val all_matches : Pattern.t -> Apex_dfg.Graph.t -> binding list
(** All bindings, by trying every application node as root.  Distinct
    bindings may cover the same node set (automorphisms); callers that
    need occurrences as sets should dedupe on the sorted node set. *)

val occurrences : Pattern.t -> Apex_dfg.Graph.t -> int list list
(** Distinct occurrence node sets (sorted ids), sorted. *)
