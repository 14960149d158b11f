(** A CDCL SAT solver — the core of our Boolector [7] substitute.

    Features: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, non-chronological backjumping, VSIDS
    branching with a variable-order heap, phase saving, Luby restarts,
    and solving under assumptions.  No clause deletion: the formulas produced by rewrite-rule
    verification are small enough not to need it.

    Literals are integers: variable [v] (0-based) appears positively as
    [pos v] and negatively as [neg_of (pos v)]. *)

type t

type result = Sat | Unsat | Unknown  (** [Unknown]: conflict budget hit *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val n_vars : t -> int

val pos : int -> int
(** Positive literal of a variable. *)

val neg : int -> int
(** Negative literal of a variable. *)

val negate : int -> int
(** Complement a literal. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  Adding the empty clause makes the
    instance trivially unsatisfiable.  Clauses may be added at any time
    outside [solve]: every [solve] returns with the trail back at level
    0, whatever its answer. *)

val solve : ?conflict_budget:int -> ?assumptions:int list -> t -> result
(** Decide satisfiability of the clauses together with the
    [assumptions] literals (default: none).  [conflict_budget] bounds
    the conflicts of this call alone (default: unlimited); a later call
    starts its count from zero.

    Assumptions hold for one call only.  Clauses learned under them are
    implied by the clauses alone and stay, so a sequence of queries on
    one instance shares its learning.  [Unsat] under assumptions means
    the clauses contradict those assumptions; the instance stays
    usable, and a later call with other assumptions (or none) answers
    afresh.  Only a conflict that needs no assumption makes every later
    call [Unsat]. *)

val model_value : t -> int -> bool
(** Value of a variable in the last [Sat] model.
    @raise Invalid_argument if the last result was not [Sat]. *)

val stats : t -> int * int * int
(** (decisions, conflicts, propagations) since creation. *)
