module Cover = Apex_mapper.Cover

exception Does_not_fit of string

type t = {
  fabric : Fabric.t;
  loc : (int * int) array;
  input_locs : (string * (int * int)) list;
  output_locs : (string * (int * int)) list;
  wirelength : float;
}

(* a net: one driver and its sinks, split into the movable instances
   among them and the bounding box of the fixed (I/O) points.  The box
   is empty ([box_bound]/[-box_bound]) when the net has no fixed point. *)
type net = {
  members : int array;
  fminx : int;
  fmaxx : int;
  fminy : int;
  fmaxy : int;
}

let input_names (m : Cover.t) =
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  Array.iter
    (fun (inst : Cover.instance) ->
      List.iter
        (fun (_, drv) ->
          match (drv : Cover.driver) with
          | Cover.From_input n -> add n
          | Cover.From_pe _ -> ())
        inst.inputs)
    m.instances;
  List.iter
    (fun (_, drv) ->
      match (drv : Cover.driver) with
      | Cover.From_input n -> add n
      | Cover.From_pe _ -> ())
    m.outputs;
  List.rev !names

type point = Inst of int | Fixed of int * int

(* the empty box's sentinels: far outside any coordinate (-1 to the
   fabric width) yet small enough that [lo]/[hi] below cannot overflow,
   as max_int/min_int would *)
let box_bound = 1 lsl 40

let build_nets (m : Cover.t) ~input_loc ~output_loc =
  (* nets keyed by driver *)
  let tbl : (string, point list) Hashtbl.t = Hashtbl.create 64 in
  let key (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> "i:" ^ n
    | Cover.From_pe (j, pos) -> Printf.sprintf "p:%d:%d" j pos
  in
  let src (drv : Cover.driver) =
    match drv with
    | Cover.From_input n ->
        let x, y = input_loc n in
        Fixed (x, y)
    | Cover.From_pe (j, _) -> Inst j
  in
  let add drv sink =
    let k = key drv in
    let prev =
      match Hashtbl.find_opt tbl k with
      | Some l -> l
      | None -> [ src drv ]
    in
    Hashtbl.replace tbl k (sink :: prev)
  in
  Array.iter
    (fun (inst : Cover.instance) ->
      List.iter (fun (_, drv) -> add drv (Inst inst.id)) inst.inputs)
    m.instances;
  List.iter
    (fun (name, drv) ->
      let x, y = output_loc name in
      add drv (Fixed (x, y)))
    m.outputs;
  let net points =
    let members =
      List.filter_map (function Inst i -> Some i | Fixed _ -> None) points
    in
    let fixed =
      List.filter_map (function Fixed (x, y) -> Some (x, y) | Inst _ -> None) points
    in
    let fold f init sel = List.fold_left (fun acc p -> f acc (sel p)) init fixed in
    { members = Array.of_list members;
      fminx = fold min box_bound fst;
      fmaxx = fold max (-box_bound) fst;
      fminy = fold min box_bound snd;
      fmaxy = fold max (-box_bound) snd }
  in
  Hashtbl.fold (fun _ points acc -> net points :: acc) tbl [] |> Array.of_list

(* branch-free min and max: [d asr 62] is all ones when [a < b] and 0
   otherwise, so the mask keeps [d] exactly when [a] is the smaller.
   Exact while [a - b] does not overflow, which [box_bound] guarantees.
   Whether a member widens a box is data-dependent, so a branch there
   mispredicts often *)
let[@inline] lo a b =
  let d = a - b in
  b + (d land (d asr 62))

let[@inline] hi a b =
  let d = a - b in
  a - (d land (d asr 62))

(* half-perimeter of a net, instance [i] sitting at (xs.(i), ys.(i));
   integral, so sums of it are exact in any order *)
let net_hpwl xs ys net =
  let minx = ref net.fminx and maxx = ref net.fmaxx in
  let miny = ref net.fminy and maxy = ref net.fmaxy in
  let members = net.members in
  for k = 0 to Array.length members - 1 do
    let i = members.(k) in
    let x = xs.(i) and y = ys.(i) in
    minx := lo x !minx;
    maxx := hi x !maxx;
    miny := lo y !miny;
    maxy := hi y !maxy
  done;
  !maxx - !minx + (!maxy - !miny)

let total_cost xs ys nets =
  Array.fold_left (fun acc net -> acc + net_hpwl xs ys net) 0 nets

module Counter = Apex_telemetry.Counter

let place ?(seed = 1) ?(effort = 1) fabric (m : Cover.t) =
  let n = Array.length m.instances in
  let pe_tiles = Array.of_list (Fabric.pe_positions fabric) in
  let ntiles = Array.length pe_tiles in
  if n > ntiles then
    raise
      (Does_not_fit (Printf.sprintf "%d instances > %d PE tiles" n ntiles));
  let inputs = input_names m in
  let input_locs =
    List.mapi (fun i name -> (name, Fabric.io_west fabric i)) inputs
  in
  let output_locs =
    List.mapi (fun i (name, _) -> (name, Fabric.io_east fabric i)) m.outputs
  in
  let input_loc name = List.assoc name input_locs in
  let output_loc name = List.assoc name output_locs in
  let nets = build_nets m ~input_loc ~output_loc in
  (* locations are PE-tile indices; [xs]/[ys] mirror their coordinates *)
  let tile_x = Array.map fst pe_tiles and tile_y = Array.map snd pe_tiles in
  (* initial placement: row-major *)
  let loc = Array.init n Fun.id in
  let xs = Array.init n (fun i -> tile_x.(i)) in
  let ys = Array.init n (fun i -> tile_y.(i)) in
  let occupant = Array.init ntiles (fun t -> if t < n then t else -1) in
  let set i t =
    loc.(i) <- t;
    xs.(i) <- tile_x.(t);
    ys.(i) <- tile_y.(t)
  in
  let nets_of = Array.make n [] in
  Array.iteri
    (fun ni net ->
      Array.iter
        (fun i -> if not (List.mem ni nets_of.(i)) then nets_of.(i) <- ni :: nets_of.(i))
        net.members)
    nets;
  let nets_of = Array.map Array.of_list nets_of in
  (* each net's current HPWL; a move rescans only the nets it touches *)
  let cost = Array.map (net_hpwl xs ys) nets in
  let sum_cost () = Array.fold_left ( + ) 0 cost in
  if effort > 0 && n > 1 then begin
    let st = Random.State.make [| seed |] in
    let moves_per_t = 20 * n * effort in
    let t = ref (Float.max 1.0 (float_of_int (sum_cost ()) *. 0.05)) in
    (* the nets touching a move, each once: stamped with the move's epoch;
       [fresh.(k)] is the HPWL of net [touched.(k)] after the move *)
    let stamp = Array.make (Array.length nets) (-1) in
    let touched = Array.make (Array.length nets) 0 in
    let fresh = Array.make (Array.length nets) 0 in
    let n_touched = ref 0 in
    let add_nets epoch i =
      let ns = nets_of.(i) in
      for k = 0 to Array.length ns - 1 do
        let ni = ns.(k) in
        if stamp.(ni) <> epoch then begin
          stamp.(ni) <- epoch;
          touched.(!n_touched) <- ni;
          incr n_touched
        end
      done
    in
    (* the move's HPWL change, the touched nets rescanned into [fresh] *)
    let delta () =
      let d = ref 0 in
      for k = 0 to !n_touched - 1 do
        let ni = touched.(k) in
        let c = net_hpwl xs ys nets.(ni) in
        fresh.(k) <- c;
        d := !d + (c - cost.(ni))
      done;
      !d
    in
    (* HPWLs are integers far below 2^53, so [d] equals the difference of
       the float costs the acceptance rule was defined on *)
    let accept d =
      let d = float_of_int d in
      d <= 0.0 || Random.State.float st 1.0 < exp (-.d /. !t)
    in
    let moves = ref 0 and accepted = ref 0 and steps = ref 0 in
    let net_evals = ref 0 in
    while !t > 0.05 do
      incr steps;
      for _ = 1 to moves_per_t do
        let i = Random.State.int st n in
        let target = Random.State.int st ntiles in
        let old_t = loc.(i) in
        incr moves;
        if target <> old_t then begin
          let j = occupant.(target) in
          n_touched := 0;
          add_nets !moves i;
          if j >= 0 then add_nets !moves j;
          net_evals := !net_evals + !n_touched;
          set i target;
          if j >= 0 then set j old_t;
          if accept (delta ()) then begin
            for k = 0 to !n_touched - 1 do
              cost.(touched.(k)) <- fresh.(k)
            done;
            occupant.(target) <- i;
            occupant.(old_t) <- j;
            incr accepted
          end
          else begin
            set i old_t;
            if j >= 0 then set j target
          end
        end
      done;
      t := !t *. 0.8
    done;
    Counter.add "pnr.place_moves" !moves;
    Counter.add "pnr.place_accepted" !accepted;
    Counter.add "pnr.temp_steps" !steps;
    Counter.add "pnr.place_net_evals" !net_evals
  end;
  { fabric;
    loc = Array.map (fun t -> pe_tiles.(t)) loc;
    input_locs;
    output_locs;
    wirelength = float_of_int (sum_cost ()) }

let hpwl p (m : Cover.t) =
  let input_loc name = List.assoc name p.input_locs in
  let output_loc name = List.assoc name p.output_locs in
  let nets = build_nets m ~input_loc ~output_loc in
  float_of_int (total_cost (Array.map fst p.loc) (Array.map snd p.loc) nets)
