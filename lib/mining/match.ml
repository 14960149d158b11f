module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type binding = { nodes : (int * int) list; inputs : (int * int) list }

let is_internal op = Op.is_compute op || Op.is_const op

let is_input op = match op with Op.Input _ | Op.Bit_input _ -> true | _ -> false

(* operation comparison; [wild] treats constant values and LUT truth
   tables as wildcards (const-generic rewrite rules) *)
let ops_match ~wild a b =
  Op.equal a b
  || wild
     && (match (a, b) with
        | Op.Const _, Op.Const _
        | Op.Bit_const _, Op.Bit_const _
        | Op.Lut _, Op.Lut _ -> true
        | _ -> false)

(* A pattern compiled once for many (graph, root) searches.  The search
   state is pattern-indexed: [node_of] and [input_of] hold the bound
   application node of an internal / input pattern node (-1 = unbound),
   [swapped] the port permutation chosen for a commutative node.  Each
   search clears the state first, so one plan serves any number of
   sequential searches (but not concurrent ones). *)
type plan = {
  pnodes : G.node array;
  wild : bool;
  internal : int array;  (* internal pattern node ids, ascending *)
  anchor : int;          (* last internal node; -1 when there is none *)
  anchor_op : Op.t;
  sinks : int list;
  node_of : int array;
  input_of : int array;
  swapped : bool array;
  mutable n_bound : int;
}

let compile ?(wild_consts = false) p =
  let pg = Pattern.graph p in
  let pnodes = G.nodes pg in
  let n = Array.length pnodes in
  let internal =
    Array.of_list
      (List.filter (fun i -> is_internal pnodes.(i).G.op) (List.init n Fun.id))
  in
  let anchor = if internal = [||] then -1 else internal.(Array.length internal - 1) in
  { pnodes;
    wild = wild_consts;
    internal;
    anchor;
    anchor_op = (if anchor < 0 then Op.Reg else pnodes.(anchor).G.op);
    sinks = List.map (fun (nd : G.node) -> nd.args.(0)) (G.io_outputs pg);
    node_of = Array.make n (-1);
    input_of = Array.make n (-1);
    swapped = Array.make n false;
    n_bound = 0 }

let sinks pl = pl.sinks

let anchor_matches pl g ~root =
  pl.anchor >= 0 && ops_match ~wild:pl.wild pl.anchor_op (G.node g root).G.op

(* application node [gi] is already the image of an internal node *)
let used pl gi = Array.exists (fun pi -> pl.node_of.(pi) = gi) pl.internal

(* The search is edge-driven, so a complete binding already has every
   operation matched, every internal edge mirrored under the recorded
   permutations and an injective internal image.  What it does not
   enforce is that the bound inputs are pairwise distinct and disjoint
   from the internal image. *)
let inputs_distinct pl =
  let n = Array.length pl.input_of in
  let ok = ref true in
  for pi = 0 to n - 1 do
    let gi = pl.input_of.(pi) in
    if gi >= 0 then begin
      if used pl gi then ok := false;
      for pj = pi + 1 to n - 1 do
        if pl.input_of.(pj) = gi then ok := false
      done
    end
  done;
  !ok

let current_binding pl =
  let collect a =
    let acc = ref [] in
    for i = Array.length a - 1 downto 0 do
      if a.(i) >= 0 then acc := (i, a.(i)) :: !acc
    done;
    !acc
  in
  { nodes = collect pl.node_of; inputs = collect pl.input_of }

let run ?(first_only = false) pl g ~succs ~root =
  if not (anchor_matches pl g ~root) then []
  else begin
    let pnodes = pl.pnodes and gnodes = G.nodes g and wild = pl.wild in
    let node_of = pl.node_of and input_of = pl.input_of in
    let n_internal = Array.length pl.internal in
    Array.fill node_of 0 (Array.length node_of) (-1);
    Array.fill input_of 0 (Array.length input_of) (-1);
    Array.fill pl.swapped 0 (Array.length pl.swapped) false;
    pl.n_bound <- 0;
    let results = ref [] in
    let stop () = first_only && !results <> [] in
    (* bind internal pattern node [pi] to graph node [gi], resolve its
       argument edges (both port orders of a commutative node, unswapped
       first), then continue with [k] *)
    let rec bind pi gi k =
      if not (stop ()) then begin
        let pn = pnodes.(pi) in
        if ops_match ~wild pn.G.op gnodes.(gi).G.op && not (used pl gi) then begin
          node_of.(pi) <- gi;
          pl.n_bound <- pl.n_bound + 1;
          let n_perms =
            if Op.is_commutative pn.G.op && Array.length pn.G.args = 2 then 2
            else 1
          in
          for s = 0 to n_perms - 1 do
            if not (stop ()) then begin
              pl.swapped.(pi) <- s = 1;
              resolve_args pi gi 0 k;
              pl.swapped.(pi) <- false
            end
          done;
          node_of.(pi) <- -1;
          pl.n_bound <- pl.n_bound - 1
        end
      end
    and resolve_args pi gi port k =
      if not (stop ()) then begin
        let pargs = pnodes.(pi).G.args in
        let nports = Array.length pargs in
        if port = nports then k ()
        else begin
          let gport = if pl.swapped.(pi) && nports = 2 then 1 - port else port in
          let pa = pargs.(port) and ga = gnodes.(gi).G.args.(gport) in
          let next () = resolve_args pi gi (port + 1) k in
          if is_input pnodes.(pa).G.op then begin
            let e = input_of.(pa) in
            if e >= 0 then (if e = ga then next ())
            else begin
              input_of.(pa) <- ga;
              next ();
              input_of.(pa) <- -1
            end
          end
          else begin
            let e = node_of.(pa) in
            if e >= 0 then (if e = ga then next ()) else bind pa ga next
          end
        end
      end
    and extend () =
      if stop () then ()
      else if pl.n_bound = n_internal then begin
        if inputs_distinct pl then results := current_binding pl :: !results
      end
      else begin
        (* the first unbound internal node that consumes a bound
           producer, extended along its first bound argument *)
        let bound_arg pi =
          if node_of.(pi) >= 0 then -1
          else
            match
              Array.find_opt (fun pa -> node_of.(pa) >= 0) pnodes.(pi).G.args
            with
            | Some pa -> pa
            | None -> -1
        in
        let rec first i =
          if i = n_internal then None
          else
            let pi = pl.internal.(i) in
            let pa = bound_arg pi in
            if pa >= 0 then Some (pi, pa) else first (i + 1)
        in
        match first 0 with
        | None -> () (* disconnected internal nodes: unsupported *)
        | Some (pi, pa) ->
            List.iter
              (fun s -> if not (stop ()) then bind pi s extend)
              succs.(node_of.(pa))
      end
    in
    bind pl.anchor root extend;
    List.rev !results
  end

let matches_at ?first_only ?wild_consts p g ~root =
  run ?first_only (compile ?wild_consts p) g ~succs:(G.succs g) ~root

let match_at p g ~root =
  match matches_at ~first_only:true p g ~root with
  | [] -> None
  | b :: _ -> Some b

let all_matches p g =
  let pl = compile p and succs = G.succs g in
  let out = ref [] in
  for root = 0 to G.length g - 1 do
    out := List.rev_append (run pl g ~succs ~root) !out
  done;
  List.rev !out

let occurrences p g =
  all_matches p g
  |> List.map (fun b -> List.map snd b.nodes |> List.sort compare)
  |> List.sort_uniq compare
