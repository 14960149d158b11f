module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type config = {
  min_support : int;
  max_size : int;
  include_consts : bool;
  generalize_consts : bool;
  max_subgraphs : int;
}

let default_config =
  { min_support = 2; max_size = 5; include_consts = true;
    generalize_consts = true; max_subgraphs = 2_000_000 }

(* constant values and LUT tables are configuration-register contents,
   not structure: patterns that differ only in them are one PE shape *)
let generalize_op (op : Op.t) =
  match op with
  | Op.Const _ -> Op.Const 0
  | Op.Bit_const _ -> Op.Bit_const false
  | Op.Lut _ -> Op.Lut 0
  | op -> op

type found = {
  pattern : Pattern.t;
  embeddings : int list list;
  support : int;
}

type stats = {
  enumerated : int;
  truncated : bool;
  capped_patterns : int;
  outcome : Apex_guard.Outcome.t;
}

(* Undirected adjacency restricted to minable nodes. *)
let adjacency cfg g =
  let minable op = Op.is_compute op || (cfg.include_consts && Op.is_const op) in
  let n = G.length g in
  let adj = Array.make n [] in
  let ok = Array.make n false in
  Array.iter (fun (nd : G.node) -> ok.(nd.id) <- minable nd.op) (G.nodes g);
  Array.iter
    (fun (nd : G.node) ->
      if ok.(nd.id) then
        Array.iter
          (fun a ->
            if ok.(a) then begin
              adj.(nd.id) <- a :: adj.(nd.id);
              adj.(a) <- nd.id :: adj.(a)
            end)
          nd.args)
    (G.nodes g);
  (Array.map (List.sort_uniq compare) adj, ok)

exception Budget

module Counter = Apex_telemetry.Counter
module Span = Apex_telemetry.Span
module Guard = Apex_guard

(* Canonical-coding scratch for one [mine] call.  Each node's
   generalized mnemonic and result-width tag are built once here, not
   once per embedding (constants are mined, and their mnemonics go
   through [sprintf]).  [pos] and [ext] map node ids to the embedding
   position and external number, -1 when unset; [shape_key] resets
   only the entries it set, recorded for externals in [ext_ids]. *)
type scratch = {
  buf : Buffer.t;
  mnemonic : string array;
  width_tag : char array;
  pos : int array;
  ext : int array;
  ext_ids : int array;
}

let make_scratch cfg g =
  let n = G.length g in
  let nodes = G.nodes g in
  { buf = Buffer.create 128;
    mnemonic =
      Array.map
        (fun (nd : G.node) ->
          Op.mnemonic
            (if cfg.generalize_consts then generalize_op nd.op else nd.op))
        nodes;
    width_tag =
      Array.map
        (fun (nd : G.node) ->
          match Op.result_width nd.op with Op.Word -> 'w' | Op.Bit -> 'b')
        nodes;
    pos = Array.make n (-1);
    ext = Array.make n (-1);
    ext_ids = Array.make n 0 }

(* decimal digits of a small non-negative int, without allocating *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.chr (48 + (i mod 10)))

let shape_key g scratch sorted =
  let { buf; mnemonic; width_tag; pos; ext; ext_ids } = scratch in
  Buffer.clear buf;
  List.iteri (fun i id -> pos.(id) <- i) sorted;
  (* externals are numbered by first use, so sharing is captured but
     the key is position-independent *)
  let n_ext = ref 0 in
  List.iter
    (fun id ->
      Buffer.add_string buf mnemonic.(id);
      Buffer.add_char buf '(';
      Array.iter
        (fun a ->
          let p = pos.(a) in
          if p >= 0 then add_int buf p
          else begin
            let k =
              if ext.(a) >= 0 then ext.(a)
              else begin
                let k = !n_ext in
                ext.(a) <- k;
                ext_ids.(k) <- a;
                incr n_ext;
                k
              end
            in
            Buffer.add_char buf 'x';
            add_int buf k;
            (* keep the width in the key *)
            Buffer.add_char buf width_tag.(a)
          end;
          Buffer.add_char buf ',')
        (G.node g id).args;
      Buffer.add_string buf ");")
    sorted;
  List.iter (fun id -> pos.(id) <- -1) sorted;
  for k = 0 to !n_ext - 1 do
    ext.(ext_ids.(k)) <- -1
  done;
  Buffer.contents buf

let canonicalize cfg g sub =
  let induced, _ = G.induced g sub in
  let induced =
    if cfg.generalize_consts then G.map_ops induced generalize_op else induced
  in
  Pattern.of_graph induced

(* ESU enumeration rooted at [root]: every connected node set of size in
   [2, max_size] containing [root] as its minimum-id member is visited
   exactly once, in a deterministic DFS order.  [emit] receives the node
   set in construction order (root last). *)
let enumerate cfg adj in_sub ~root ~emit =
  let rec extend sub size ext =
    if size >= 2 then emit sub;
    if size < cfg.max_size then begin
      let rec loop = function
        | [] -> ()
        | w :: rest ->
            (* ESU: the branch containing [w] may further extend with the
               remaining candidates plus the exclusive neighborhood of
               [w] — neighbors > root that are not in, and not adjacent
               to, the current subgraph.  The adjacency exclusion is what
               guarantees each node set is visited exactly once. *)
            let exclusive =
              List.filter
                (fun u ->
                  u > root && (not in_sub.(u))
                  && not (List.exists (fun x -> in_sub.(x)) adj.(u)))
                adj.(w)
            in
            in_sub.(w) <- true;
            extend (w :: sub) (size + 1) (rest @ exclusive);
            in_sub.(w) <- false;
            loop rest
      in
      loop ext
    end
  in
  let ext = List.filter (fun u -> u > root) adj.(root) in
  in_sub.(root) <- true;
  extend [ root ] 1 ext;
  in_sub.(root) <- false

(* ESU enumeration: each connected node set of size in [2, max_size] is
   visited exactly once. *)
let mine cfg g =
  Span.with_ "mining" @@ fun () ->
  Guard.with_phase "mining" @@ fun () ->
  let adj, ok = adjacency cfg g in
  let n = G.length g in
  let groups : (string, Pattern.t * int list list * int) Hashtbl.t =
    Hashtbl.create 64
  in
  (* embedding lists are capped per pattern; the true occurrence count
     is tracked separately and capped patterns are reported in stats *)
  let max_embeddings = 4000 in
  let enumerated = ref 0 in
  let truncated = ref false in
  (* canonicalization cache: embeddings whose induced subgraphs have the
     same shape relative to their sorted node order (the common case for
     repeated stencil structure) share one canonicalization *)
  let canon_cache : (string, Pattern.t) Hashtbl.t = Hashtbl.create 256 in
  let canon_hits = ref 0 in
  let in_sub = Array.make n false in
  let scratch = make_scratch cfg g in
  (* record each embedding as it is enumerated: budget, grouping and
     the canonicalization cache *)
  let emit sub =
    Guard.tick ();
    incr enumerated;
    if !enumerated > cfg.max_subgraphs then raise Budget;
    (* only patterns with >= 1 compute node are interesting *)
    if List.exists (fun i -> Op.is_compute (G.node g i).op) sub then begin
      let sorted = List.sort compare sub in
      let sk = shape_key g scratch sorted in
      let p =
        match Hashtbl.find_opt canon_cache sk with
        | Some p ->
            incr canon_hits;
            p
        | None ->
            let p = canonicalize cfg g sub in
            Hashtbl.replace canon_cache sk p;
            p
      in
      let key = Pattern.code p in
      let prev, count =
        match Hashtbl.find_opt groups key with
        | Some (_, embs, count) -> (embs, count)
        | None -> ([], 0)
      in
      let prev = if count < max_embeddings then sorted :: prev else prev in
      Hashtbl.replace groups key (p, prev, count + 1)
    end
  in
  let outcome = ref Guard.Outcome.Exact in
  (try
     for root = 0 to n - 1 do
       if ok.(root) then enumerate cfg adj ~root ~emit in_sub
     done
   with
  | Budget ->
      (* the pre-existing enumeration cap: a fuel-shaped truncation *)
      truncated := true;
      outcome := Guard.Outcome.Degraded Guard.Outcome.Fuel
  | Guard.Cancelled msg ->
      (* deadline or cooperative cancel mid-enumeration: everything
         recorded so far is a valid (if partial) pattern census, the
         same best-so-far shape the subgraph cap produces *)
      truncated := true;
      outcome := Guard.Outcome.Degraded (Guard.reason_of_message msg));
  let capped = ref 0 in
  let rejected = ref 0 in
  let found =
    Hashtbl.fold
      (fun _ (p, embs, count) acc ->
        if count > max_embeddings then incr capped;
        let embs = List.sort_uniq compare embs in
        if count >= cfg.min_support then begin
          (* order-insensitive, so percentiles do not depend on the
             table's iteration order *)
          Counter.observe "mining.embeddings_per_pattern"
            (float_of_int count);
          { pattern = p; embeddings = embs; support = count } :: acc
        end
        else begin
          incr rejected;
          acc
        end)
      groups []
  in
  Counter.incr "mining.runs";
  Counter.add "mining.patterns_grown" (Hashtbl.length groups);
  Counter.add "mining.embeddings_enumerated" !enumerated;
  Counter.add "mining.canon_cache_hits" !canon_hits;
  Counter.add "mining.min_support_rejections" !rejected;
  Counter.add "mining.capped_patterns" !capped;
  if !truncated then Counter.incr "mining.budget_truncations";
  Guard.Outcome.record ~phase:"mining" !outcome;
  let cmp a b =
    match compare b.support a.support with
    | 0 -> (
        match compare (Pattern.size b.pattern) (Pattern.size a.pattern) with
        | 0 -> String.compare (Pattern.code a.pattern) (Pattern.code b.pattern)
        | c -> c)
    | c -> c
  in
  ( List.sort cmp found,
    { enumerated = !enumerated;
      truncated = !truncated;
      capped_patterns = !capped;
      outcome = !outcome } )
