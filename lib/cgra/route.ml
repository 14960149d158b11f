module Op = Apex_dfg.Op
module D = Apex_merging.Datapath
module Cover = Apex_mapper.Cover

type hop = (int * int) * (int * int)

type net = {
  name : string;
  width : Op.width;
  source : int * int;
  sinks : (int * int) list;
  tree : hop list;
  tracks : (hop * int) list;
  (** concrete track index used on each hop (detailed routing) *)
}

type t = {
  nets : net list;
  word_hops : int;
  bit_hops : int;
  overuse : int;
  iterations : int;
}

(* net extraction: one net per (driver, width) with its sink tiles *)
let extract_nets (p : Place.t) (m : Cover.t) =
  let tbl : (string, Op.width * (int * int) * (int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  (* all routed nets are treated as 16-bit; the fabric's 1-bit tracks
     are plentiful and our applications route words between PEs *)
  let src_of (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> List.assoc n p.input_locs
    | Cover.From_pe (j, _) -> p.loc.(j)
  in
  let key (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> "i:" ^ n
    | Cover.From_pe (j, pos) -> Printf.sprintf "p:%d:%d" j pos
  in
  let add drv sink =
    let k = key drv in
    match Hashtbl.find_opt tbl k with
    | Some (w, src, sinks) ->
        if not (List.mem sink sinks) then
          Hashtbl.replace tbl k (w, src, sink :: sinks)
    | None -> Hashtbl.replace tbl k (Op.Word, src_of drv, [ sink ])
  in
  Array.iteri
    (fun idx (inst : Cover.instance) ->
      List.iter (fun (_, drv) -> add drv p.loc.(idx)) inst.inputs;
      ignore idx)
    m.instances;
  List.iter
    (fun (name, drv) -> add drv (List.assoc name p.output_locs))
    m.outputs;
  Hashtbl.fold
    (fun name (w, src, sinks) acc -> (name, w, src, sinks) :: acc)
    tbl []
  |> List.sort compare

(* The routing graph: every fabric tile plus the I/O columns just
   outside it (x = -1 and x = width), rows 0 .. height-1, numbered
   column-major so that index order is (x, y) order.  A hop is numbered
   by its start node and direction.  (The I/O columns continue past the
   top and bottom rows only as dead ends no route uses, so they are not
   part of the graph.) *)
type grid = { fabric : Fabric.t; height : int; n_nodes : int }

let grid fabric =
  let height = fabric.Fabric.height in
  { fabric; height; n_nodes = (fabric.Fabric.width + 2) * height }

let index gr (x, y) = ((x + 1) * gr.height) + y

let coords gr i = ((i / gr.height) - 1, i mod gr.height)

(* directions in the order neighbors are relaxed *)
let dx = [| 1; -1; 0; 0 |]

let dy = [| 0; 0; 1; -1 |]

(* the node one step from [u] in direction [dir], or -1 *)
let neighbor gr u dir =
  let x, y = coords gr u in
  let nx = x + dx.(dir) and ny = y + dy.(dir) in
  if
    ny >= 0 && ny < gr.height
    && (Fabric.in_bounds gr.fabric ~x:nx ~y:ny
       || nx = -1 || nx = gr.fabric.Fabric.width)
  then index gr (nx, ny)
  else -1

let hop_id u dir = (4 * u) + dir

let hop_of_id gr h =
  let u = h / 4 in
  (coords gr u, coords gr (neighbor gr u (h mod 4)))

(* Binary min-heap of (distance, node) entries, ordered like the pairs'
   structural comparison.  An entry pushed twice stays twice; the twin
   pops right after its first copy and relaxes nothing. *)
module Heap = struct
  type t = { mutable keys : float array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 64 0.0; vals = Array.make 64 0; size = 0 }

  let less h i j =
    let c = Float.compare h.keys.(i) h.keys.(j) in
    c < 0 || (c = 0 && h.vals.(i) < h.vals.(j))

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h key v =
    if h.size = Array.length h.keys then begin
      let grow a fill =
        let b = Array.make (2 * h.size) fill in
        Array.blit a 0 b 0 h.size;
        b
      in
      h.keys <- grow h.keys 0.0;
      h.vals <- grow h.vals 0
    end;
    h.keys.(h.size) <- key;
    h.vals.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* remove the minimum; read it first with [min_key]/[min_val] *)
  let pop h =
    h.size <- h.size - 1;
    swap h 0 h.size;
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = if l < h.size && less h l !i then l else !i in
      let m = if r < h.size && less h r m then r else m in
      if m = !i then stop := true
      else begin
        swap h !i m;
        i := m
      end
    done

  let min_key h = h.keys.(0)
  let min_val h = h.vals.(0)
end

(* per-route search state, reused by every Dijkstra of the route *)
type search = { dist : float array; prev : int array; heap : Heap.t }

(* Dijkstra from a set of tree nodes to one target over congestion-aware
   hop costs; the path as hop ids, source side first *)
let shortest gr sr ~cost ~sources ~target =
  let dist = sr.dist and prev = sr.prev and pq = sr.heap in
  Array.fill dist 0 gr.n_nodes Float.infinity;
  Array.fill prev 0 gr.n_nodes (-1);
  pq.Heap.size <- 0;
  List.iter
    (fun s ->
      dist.(s) <- 0.0;
      Heap.push pq 0.0 s)
    sources;
  let found = ref false in
  while (not !found) && pq.Heap.size > 0 do
    let d = Heap.min_key pq and u = Heap.min_val pq in
    Heap.pop pq;
    if d <= dist.(u) +. 1e-9 then begin
      if u = target then found := true
      else
        for dir = 0 to 3 do
          let v = neighbor gr u dir in
          if v >= 0 then begin
            let c = d +. cost (hop_id u dir) in
            if c < dist.(v) -. 1e-12 then begin
              dist.(v) <- c;
              prev.(v) <- hop_id u dir;
              Heap.push pq c v
            end
          end
        done
    end
  done;
  if not !found then None
  else begin
    let rec walk node acc =
      match prev.(node) with
      | -1 -> acc
      | h -> walk (h / 4) (h :: acc)
    in
    Some (walk target [])
  end

let route_net gr sr ~cost ~source ~sinks =
  (* grow a tree: route each sink from the current tree *)
  let tree_nodes = ref [ index gr source ] in
  let tree_edges = ref [] in
  let sinks =
    List.sort
      (fun a b ->
        let d (x, y) = abs (x - fst source) + abs (y - snd source) in
        compare (d a) (d b))
      sinks
  in
  let ok = ref true in
  List.iter
    (fun sink ->
      let sink = index gr sink in
      if !ok && not (List.mem sink !tree_nodes) then
        match shortest gr sr ~cost ~sources:!tree_nodes ~target:sink with
        | None -> ok := false
        | Some path ->
            List.iter
              (fun h ->
                let b = neighbor gr (h / 4) (h mod 4) in
                if not (List.mem h !tree_edges) then tree_edges := h :: !tree_edges;
                if not (List.mem b !tree_nodes) then tree_nodes := b :: !tree_nodes)
              path)
    sinks;
  if !ok then Some (List.rev !tree_edges) else None

let route ?(max_iters = 30) (p : Place.t) (m : Cover.t) =
  let fabric = p.fabric in
  let gr = grid fabric in
  let nets = extract_nets p m in
  let capacity = fabric.Fabric.params.word_tracks in
  let n_hops = 4 * gr.n_nodes in
  let usage = Array.make n_hops 0 in
  let history = Array.make n_hops 0.0 in
  let sr =
    { dist = Array.make gr.n_nodes 0.0;
      prev = Array.make gr.n_nodes (-1);
      heap = Heap.create () }
  in
  let cost h =
    let u = usage.(h) in
    let over = if u >= capacity then 4.0 *. float_of_int (u - capacity + 1) else 0.0 in
    1.0 +. history.(h) +. over
  in
  let routed = ref [] in
  let iterations = ref 0 in
  let legal = ref false in
  while (not !legal) && !iterations < max_iters do
    incr iterations;
    Array.fill usage 0 n_hops 0;
    routed := [];
    List.iter
      (fun (name, width, source, sinks) ->
        match route_net gr sr ~cost ~source ~sinks with
        | None -> failwith ("Route: net unroutable: " ^ name)
        | Some tree ->
            List.iter (fun h -> usage.(h) <- usage.(h) + 1) tree;
            routed := (name, width, source, sinks, tree) :: !routed)
      nets;
    (* congestion check *)
    let over = ref 0 in
    Array.iteri
      (fun h u ->
        if u > capacity then begin
          incr over;
          history.(h) <- history.(h) +. 1.0
        end)
      usage;
    if !over = 0 then legal := true
  done;
  (* detailed routing: give each net a concrete track index per hop
     (first free track on that boundary, in net order) *)
  let track_next = Array.make n_hops 0 in
  let nets =
    List.rev_map
      (fun (name, width, source, sinks, tree) ->
        let tracks =
          List.map
            (fun h ->
              let t = track_next.(h) in
              track_next.(h) <- t + 1;
              (hop_of_id gr h, t))
            tree
        in
        { name; width; source; sinks; tree = List.map fst tracks; tracks })
      !routed
  in
  let word_hops, bit_hops =
    List.fold_left
      (fun (w, b) n ->
        match n.width with
        | Op.Word -> (w + List.length n.tree, b)
        | Op.Bit -> (w, b + List.length n.tree))
      (0, 0) nets
  in
  let overuse =
    Array.fold_left (fun acc u -> if u > capacity then acc + 1 else acc) 0 usage
  in
  Apex_telemetry.Counter.add "pnr.route_iterations" !iterations;
  { nets; word_hops; bit_hops; overuse; iterations = !iterations }

let tiles_touched t =
  List.concat_map (fun n -> List.concat_map (fun (a, b) -> [ a; b ]) n.tree) t.nets
  |> List.sort_uniq compare

let routing_only_tiles t (p : Place.t) (m : Cover.t) =
  let pe_tiles = Array.to_list p.loc in
  ignore m;
  tiles_touched t
  |> List.filter (fun tile ->
         Fabric.in_bounds p.fabric ~x:(fst tile) ~y:(snd tile)
         && not (List.mem tile pe_tiles))
  |> List.length
