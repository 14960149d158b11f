(** Simulated-annealing placement of a mapped application onto the
    fabric's PE tiles.  Input streams are pinned to the west edge and
    output streams to the east edge; the annealer minimizes total
    half-perimeter wirelength. *)

exception Does_not_fit of string

type t = {
  fabric : Fabric.t;
  loc : (int * int) array;             (** instance index -> tile *)
  input_locs : (string * (int * int)) list;
  output_locs : (string * (int * int)) list;
  wirelength : float;
      (** final HPWL cost: the sum of the per-net costs the annealer
          maintains across moves *)
}

val place : ?seed:int -> ?effort:int -> Fabric.t -> Apex_mapper.Cover.t -> t
(** [effort] scales the annealing schedule (default 1; 0 = greedy
    initial placement only, for fast estimates).

    Results contract: the placement is a function of [seed] through the
    annealer's random stream, so the following are fixed and any change
    to them moves placements, and with them every reported metric.
    Instance [i] starts on the [i]-th PE tile (row-major).  Each move
    draws [Random.State.int st n] (the instance), then
    [Random.State.int st ntiles] (the target PE tile; an occupied tile
    means a swap, its own tile a no-op), and [Random.State.float st 1.0]
    only when the move's HPWL change [d] is positive.  The move is
    accepted iff [d <= 0] or that draw is below [exp (-. d /. t)].
    [t] starts at [max 1 (0.05 * initial HPWL)] and is multiplied by
    0.8 after every [20 * n * effort] moves while it is above 0.05.
    @raise Does_not_fit when the application needs more PE tiles than
    the fabric has. *)

val hpwl : t -> Apex_mapper.Cover.t -> float
(** Recompute the half-perimeter wirelength of a placement from scratch
    (exposed for testing). *)
