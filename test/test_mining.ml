(* Tests for subgraph mining, canonical patterns, matching and MIS. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Miner = Apex_mining.Miner
module Mis = Apex_mining.Mis
module Match = Apex_mining.Match
module Analysis = Apex_mining.Analysis

let check = Alcotest.check
let int = Alcotest.int

let conv4 () =
  let b = G.Builder.create () in
  let i = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "i%d" k))) in
  let w = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "w%d" k))) in
  let c = G.Builder.add0 b (Op.Input "c") in
  let m = Array.init 4 (fun k -> G.Builder.add2 b Op.Mul i.(k) w.(k)) in
  let s1 = G.Builder.add2 b Op.Add m.(0) m.(1) in
  let s2 = G.Builder.add2 b Op.Add s1 m.(2) in
  let s3 = G.Builder.add2 b Op.Add s2 m.(3) in
  let s4 = G.Builder.add2 b Op.Add s3 c in
  ignore (G.Builder.add1 b (Op.Output "out") s4);
  G.Builder.finish b

(* mul feeding add: Fig. 3b *)
let mul_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add m z in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  Pattern.of_graph (G.Builder.finish b)

(* add feeding add: Fig. 3d *)
let add_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let a1 = G.Builder.add2 b Op.Add x y in
  let a2 = G.Builder.add2 b Op.Add a1 z in
  ignore (G.Builder.add1 b (Op.Output "o") a2);
  Pattern.of_graph (G.Builder.finish b)

(* --- canonical codes --- *)

let test_canonical_iso () =
  (* same pattern built with different construction orders and with
     commutative arguments swapped must canonicalize identically *)
  let p1 = mul_add_pattern () in
  let p2 =
    let b = G.Builder.create () in
    let z = G.Builder.add0 b (Op.Input "qq") in
    let y = G.Builder.add0 b (Op.Input "rr") in
    let x = G.Builder.add0 b (Op.Input "ss") in
    let m = G.Builder.add2 b Op.Mul y x in
    let a = G.Builder.add2 b Op.Add z m in
    ignore (G.Builder.add1 b (Op.Output "o") a);
    Pattern.of_graph (G.Builder.finish b)
  in
  Alcotest.(check string) "codes equal" (Pattern.code p1) (Pattern.code p2)

let test_canonical_distinguishes_sharing () =
  let make shared =
    let b = G.Builder.create () in
    let x = G.Builder.add0 b (Op.Input "x") in
    let y = if shared then x else G.Builder.add0 b (Op.Input "y") in
    let m = G.Builder.add2 b Op.Mul x y in
    ignore (G.Builder.add1 b (Op.Output "o") m);
    Pattern.of_graph (G.Builder.finish b)
  in
  Alcotest.(check bool) "square /= mul" false
    (String.equal (Pattern.code (make true)) (Pattern.code (make false)))

let test_canonical_noncommutative () =
  let make swap =
    let b = G.Builder.create () in
    let x = G.Builder.add0 b (Op.Input "x") in
    let y = G.Builder.add0 b (Op.Input "y") in
    let s = G.Builder.add2 b Op.Shl x y in
    let t = G.Builder.add2 b Op.Sub (if swap then y else x) s in
    ignore (G.Builder.add1 b (Op.Output "o") t);
    Pattern.of_graph (G.Builder.finish b)
  in
  (* sub(x, x<<y) vs sub(y, x<<y): different patterns *)
  Alcotest.(check bool) "distinct" false
    (String.equal (Pattern.code (make false)) (Pattern.code (make true)))

let test_pattern_size_inputs () =
  let p = mul_add_pattern () in
  check int "size" 2 (Pattern.size p);
  check int "inputs" 3 (Pattern.n_inputs p)

(* --- mining on the Fig. 3 convolution --- *)

let mine_conv () =
  let cfg = { Miner.default_config with min_support = 2; max_size = 3 } in
  Miner.mine cfg (conv4 ())

let find_pattern found p =
  List.find_opt
    (fun (f : Miner.found) -> String.equal (Pattern.code f.pattern) (Pattern.code p))
    found

let test_mine_mul_add () =
  let found, _ = mine_conv () in
  match find_pattern found (mul_add_pattern ()) with
  | None -> Alcotest.fail "mul+add pattern not mined"
  | Some f -> check int "mul+add support (Fig. 3b)" 4 f.support

let test_mine_add_add () =
  let found, _ = mine_conv () in
  match find_pattern found (add_add_pattern ()) with
  | None -> Alcotest.fail "add+add pattern not mined"
  | Some f -> check int "add+add support (Fig. 3d)" 3 f.support

let test_mine_stats () =
  let _, stats = mine_conv () in
  Alcotest.(check bool) "not truncated" false stats.truncated;
  Alcotest.(check bool) "enumerated something" true (stats.enumerated > 10)

let test_min_support_filters () =
  let cfg = { Miner.default_config with min_support = 5; max_size = 3 } in
  let found, _ = Miner.mine cfg (conv4 ()) in
  List.iter
    (fun (f : Miner.found) ->
      Alcotest.(check bool) "support >= 5" true (f.support >= 5))
    found

let test_embeddings_are_occurrences () =
  (* miner embeddings must agree with the independent matcher *)
  let found, _ = mine_conv () in
  List.iter
    (fun (f : Miner.found) ->
      let occs = Match.occurrences f.pattern (conv4 ()) in
      let embs = List.sort compare f.embeddings in
      if not (embs = occs) then
        Alcotest.failf "mismatch for %s: miner %d matcher %d"
          (Pattern.code f.pattern) (List.length embs) (List.length occs))
    found

(* --- mining census golden ---

   The full pattern census of every bundled app at [max_size] 4:
   a digest of [mine]'s (code, support, embeddings) list in its own
   order, the enumeration count, and the canonicalization-cache hit
   count.  The cache key only groups embeddings, so a key that merges
   two shapes moves the digest and one that splits a shape moves the
   hit count.  Recorded before the array-indexed shape key replaced
   the hash-table one. *)

module Apps = Apex_halide.Apps

let census_golden =
  [ "camera 055ebca72c7137c5e95af256dbc0eb23 enumerated=18210 canon_hits=17618";
    "harris ef8cd1c651f98a9dc00fd5eef36e4af0 enumerated=10218 canon_hits=9903";
    "gaussian 94a1b3ede18f22e6145031eb1a842a14 enumerated=1101 canon_hits=1047";
    "unsharp 6488d64046b74e903209aa869052568a enumerated=2031 canon_hits=1922";
    "resnet f7f48fd48dd3c94c7789aebe1acb3298 enumerated=1741 canon_hits=1627";
    "mobilenet c28a32c6a6d4c135b455214ecc19982c enumerated=3857 canon_hits=3712";
    "laplacian 9b563e7a9f9d869fff89ab8670e1cdcf enumerated=387 canon_hits=292";
    "stereo 8795ff34e7a2015fc3ad617c0b96379f enumerated=654 canon_hits=475";
    "fast 8fc9a2238b6b40f223ebc1ae81a4c80e enumerated=21446 canon_hits=21278";
    "sobel ba9271fdcbed3d745ffd0a13b2dcc3a9 enumerated=318 canon_hits=247";
    "median3 e8dcb2bcc08f571bc9ac1bdaff46c1e1 enumerated=92 canon_hits=51";
    "resize 95f0c846478741b9358bf538bf14f600 enumerated=328 canon_hits=281" ]

let census_line (app : Apps.t) =
  Apex_telemetry.Registry.reset ();
  Apex_telemetry.Registry.enable ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  let found, stats =
    Miner.mine { Miner.default_config with max_size = 4 } app.Apps.graph
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (f : Miner.found) ->
      Buffer.add_string b (Pattern.code f.pattern);
      Buffer.add_string b (Printf.sprintf "|%d|" f.support);
      List.iter
        (fun emb ->
          List.iter (fun i -> Buffer.add_string b (Printf.sprintf "%d," i)) emb;
          Buffer.add_char b ';')
        f.embeddings;
      Buffer.add_char b '\n')
    found;
  Printf.sprintf "%s %s enumerated=%d canon_hits=%d" app.Apps.name
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    stats.Miner.enumerated
    (Apex_telemetry.Counter.get "mining.canon_cache_hits")

let test_census_golden () =
  let apps = Apps.evaluated () @ Apps.unseen () @ Apps.extended () in
  check int "twelve bundled apps" 12 (List.length apps);
  check (Alcotest.list Alcotest.string) "census" census_golden
    (List.map census_line apps)

(* --- MIS analysis (Fig. 4) --- *)

let test_mis_add_add () =
  (* the add->add chain pattern overlaps heavily; in the conv graph the
     three occurrences form a path in the overlap graph, so MIS = 2 *)
  let found, _ = mine_conv () in
  match find_pattern found (add_add_pattern ()) with
  | None -> Alcotest.fail "pattern missing"
  | Some f -> check int "MIS size (Fig. 4)" 2 (Mis.mis_size f.embeddings)

let test_mis_disjoint () =
  let embs = [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  check int "no overlaps" 3 (Mis.mis_size embs)

let test_mis_all_overlap () =
  let embs = [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ] in
  check int "triangle" 1 (Mis.mis_size embs)

let test_mis_greedy_is_independent () =
  let g = Mis.overlap_graph [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ]; [ 5; 6 ] ] in
  let s = Mis.greedy g in
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) "independent" false (List.mem i s && List.mem j s))
    g.edges

let test_mis_exact_matches_small () =
  let g = Mis.overlap_graph [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ] ] in
  let s = Mis.exact_maximum g in
  Alcotest.(check bool) "optimal" true s.Mis.optimal;
  check int "path of 4 -> 2" 2 (List.length s.Mis.members)

let prop_greedy_le_exact =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* seed = int in
      return (n, seed))
  in
  QCheck.Test.make ~name:"greedy MIS <= exact maximum" ~count:200 (QCheck.make gen)
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let embs =
        List.init n (fun _ ->
            List.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st 10)
            |> List.sort_uniq compare)
      in
      let g = Mis.overlap_graph embs in
      let greedy = List.length (Mis.greedy g) in
      let ex = Mis.exact_maximum g in
      ex.Mis.optimal
      && greedy <= List.length ex.Mis.members
      && greedy >= 1)

let prop_greedy_independent =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* seed = int in
      return (n, seed))
  in
  QCheck.Test.make ~name:"greedy MIS is independent and maximal" ~count:200
    (QCheck.make gen) (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let embs =
        List.init n (fun _ ->
            List.init (1 + Random.State.int st 4) (fun _ -> Random.State.int st 12)
            |> List.sort_uniq compare)
      in
      let g = Mis.overlap_graph embs in
      let s = Mis.greedy g in
      let independent =
        List.for_all (fun (i, j) -> not (List.mem i s && List.mem j s)) g.edges
      in
      (* maximality: every vertex outside s has a neighbor inside s *)
      let adj v =
        List.filter_map
          (fun (i, j) -> if i = v then Some j else if j = v then Some i else None)
          g.edges
      in
      let maximal =
        List.for_all
          (fun v -> List.mem v s || List.exists (fun u -> List.mem u s) (adj v))
          (List.init g.n Fun.id)
      in
      independent && maximal)

(* --- analysis (ranking) --- *)

let test_analysis_ranked_by_mis () =
  let ranked, _ = Analysis.analyze (conv4 ()) in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
        a.Analysis.mis_size >= b.Analysis.mis_size && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by MIS" true (decreasing ranked);
  Alcotest.(check bool) "nonempty" true (ranked <> [])

let test_analysis_many_sums () =
  let g = conv4 () in
  let single, _ = Analysis.analyze g in
  let dual = Analysis.analyze_many [ g; g ] in
  let top = List.hd single in
  let found =
    List.find
      (fun r ->
        String.equal (Pattern.code r.Analysis.pattern)
          (Pattern.code top.Analysis.pattern))
      dual
  in
  check int "mis doubles across two apps" (2 * top.Analysis.mis_size)
    found.Analysis.mis_size

(* --- matching --- *)

let test_match_occurrences_count () =
  let occs = Match.occurrences (mul_add_pattern ()) (conv4 ()) in
  check int "mul+add occurrences" 4 (List.length occs)

let test_match_respects_ports () =
  (* shl(x, y) should not match shl(y, x): build a graph with one shl *)
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Shl x y in
  let t = G.Builder.add2 b Op.Sub s x in
  ignore (G.Builder.add1 b (Op.Output "o") t);
  let g = G.Builder.finish b in
  (* pattern: sub(shl(a,b), b) — requires arg1 of sub = arg1 of shl;
     in g, arg1 of sub is x = arg0 of shl, so no match *)
  let pb = G.Builder.create () in
  let a = G.Builder.add0 pb (Op.Input "a") in
  let c = G.Builder.add0 pb (Op.Input "b") in
  let s' = G.Builder.add2 pb Op.Shl a c in
  let t' = G.Builder.add2 pb Op.Sub s' c in
  ignore (G.Builder.add1 pb (Op.Output "o") t');
  let p = Pattern.of_graph (G.Builder.finish pb) in
  check int "no port-violating match" 0 (List.length (Match.occurrences p g));
  (* the consistent pattern sub(shl(a,b), a) matches once *)
  let pb2 = G.Builder.create () in
  let a2 = G.Builder.add0 pb2 (Op.Input "a") in
  let c2 = G.Builder.add0 pb2 (Op.Input "b") in
  let s2 = G.Builder.add2 pb2 Op.Shl a2 c2 in
  let t2 = G.Builder.add2 pb2 Op.Sub s2 a2 in
  ignore (G.Builder.add1 pb2 (Op.Output "o") t2);
  let p2 = Pattern.of_graph (G.Builder.finish pb2) in
  check int "consistent match" 1 (List.length (Match.occurrences p2 g))

let test_match_commutative_swap () =
  (* pattern add(mul(a,b), c) must match graph add(c, mul(a,b)) *)
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add z m in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  let g = G.Builder.finish b in
  check int "commutative match" 1
    (List.length (Match.occurrences (mul_add_pattern ()) g))

(* brute-force oracle: enumerate ALL connected subsets of minable nodes
   up to size k by subset enumeration, and compare against the ESU
   miner's embedding lists *)
let brute_force_embeddings g max_size =
  let module Op = Apex_dfg.Op in
  let minable i = Op.is_compute (G.node g i).op || Op.is_const (G.node g i).op in
  let n = G.length g in
  let nodes = List.filter minable (List.init n Fun.id) in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Array.iter
        (fun a ->
          if minable a then begin
            Hashtbl.add adj i a;
            Hashtbl.add adj a i
          end)
        (G.node g i).args)
    nodes;
  let connected set =
    match set with
    | [] -> false
    | seed :: _ ->
        let visited = Hashtbl.create 8 in
        let rec dfs v =
          if not (Hashtbl.mem visited v) then begin
            Hashtbl.replace visited v ();
            List.iter (fun u -> if List.mem u set then dfs u) (Hashtbl.find_all adj v)
          end
        in
        dfs seed;
        List.for_all (Hashtbl.mem visited) set
  in
  (* all subsets of size 2..max_size *)
  let rec subsets k pool =
    if k = 0 then [ [] ]
    else
      match pool with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.concat_map (fun k -> subsets k nodes) [ 2; 3 ]
  |> List.filter connected
  |> List.filter (fun s -> List.exists (fun i -> Op.is_compute (G.node g i).op) s)
  |> List.map (List.sort compare)
  |> List.filter (fun s -> List.length s <= max_size)
  |> List.sort compare

let prop_miner_matches_brute_force =
  QCheck.Test.make ~name:"ESU enumerates exactly the connected subgraphs"
    ~count:100 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      (* small random DAG *)
      let b = G.Builder.create () in
      let x = G.Builder.add0 b (Op.Input "x") in
      let y = G.Builder.add0 b (Op.Input "y") in
      let words = ref [ x; y ] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let ops = [| Op.Add; Op.Sub; Op.Mul; Op.Smax; Op.And |] in
      for _ = 1 to 2 + Random.State.int st 6 do
        let op = ops.(Random.State.int st (Array.length ops)) in
        let id = G.Builder.add2 b op (pick !words) (pick !words) in
        words := id :: !words
      done;
      ignore (G.Builder.add1 b (Op.Output "o") (List.hd !words));
      let g = G.Builder.finish b in
      let cfg = { Miner.default_config with min_support = 1; max_size = 3 } in
      let mined, _ = Miner.mine cfg g in
      let mined_sets =
        List.concat_map (fun (f : Miner.found) -> f.embeddings) mined
        |> List.sort compare
      in
      mined_sets = brute_force_embeddings g 3)

(* brute-force matcher oracle: every injective, operation-preserving
   assignment of the pattern's internal nodes with the anchor (last
   internal node) at [root], under every port order of its commutative
   binary nodes, kept when each internal edge is mirrored, shared
   pattern inputs bind consistently, and the bound inputs are distinct
   and outside the internal image.  No edge-driven search. *)
let brute_force_bindings ~wild p g ~root =
  let pg = Pattern.graph p in
  let pnode i = G.node pg i and gnode i = G.node g i in
  let ops_match a b =
    Op.equal a b
    || wild
       && (match (a, b) with
          | Op.Const _, Op.Const _ | Op.Bit_const _, Op.Bit_const _ | Op.Lut _, Op.Lut _ -> true
          | _ -> false)
  in
  let internal =
    List.filter
      (fun i -> Op.is_compute (pnode i).op || Op.is_const (pnode i).op)
      (List.init (G.length pg) Fun.id)
  in
  let anchor = List.nth internal (List.length internal - 1) in
  let is_internal i = List.mem i internal in
  let rec assign = function
    | [] -> [ [] ]
    | pi :: rest ->
        List.concat_map
          (fun f ->
            List.filter_map
              (fun gi ->
                if
                  ops_match (pnode pi).op (gnode gi).op
                  && (pi <> anchor || gi = root)
                  && not (List.exists (fun (_, b) -> b = gi) f)
                then Some ((pi, gi) :: f)
                else None)
              (List.init (G.length g) Fun.id))
          (assign rest)
  in
  let rec perms = function
    | [] -> [ [] ]
    | pi :: rest ->
        let n = pnode pi in
        let tails = perms rest in
        if Op.is_commutative n.op && Array.length n.args = 2 then
          List.concat_map (fun t -> [ (pi, false) :: t; (pi, true) :: t ]) tails
        else List.map (fun t -> (pi, false) :: t) tails
  in
  let binding f perm =
    let inputs = Hashtbl.create 8 in
    let edge_ok pi =
      let pn = pnode pi and gn = gnode (List.assoc pi f) in
      let swapped = List.assoc pi perm in
      List.for_all
        (fun k ->
          let pa = pn.args.(k) in
          let ga = gn.args.(if swapped then 1 - k else k) in
          if is_internal pa then List.assoc pa f = ga
          else
            match Hashtbl.find_opt inputs pa with
            | Some e -> e = ga
            | None ->
                Hashtbl.replace inputs pa ga;
                true)
        (List.init (Array.length pn.args) Fun.id)
    in
    if not (List.for_all edge_ok internal) then None
    else begin
      let ins = Hashtbl.fold (fun a b acc -> (a, b) :: acc) inputs [] in
      let images = List.map snd ins in
      if
        List.length (List.sort_uniq compare images) = List.length images
        && not (List.exists (fun (_, b) -> List.mem b images) f)
      then Some { Match.nodes = List.sort compare f; inputs = List.sort compare ins }
      else None
    end
  in
  List.concat_map
    (fun f -> List.filter_map (binding f) (perms internal))
    (assign internal)
  |> List.sort_uniq compare

let prop_matcher_matches_brute_force =
  QCheck.Test.make ~name:"compiled matcher agrees with brute force" ~count:60
    QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      (* at most 12 nodes: 2 inputs, 2 constants, up to 7 operations and
         an output; operands may repeat (shared inputs) *)
      let b = G.Builder.create () in
      let x = G.Builder.add0 b (Op.Input "x") in
      let y = G.Builder.add0 b (Op.Input "y") in
      let c1 = G.Builder.add0 b (Op.Const (1 + Random.State.int st 2)) in
      let c2 = G.Builder.add0 b (Op.Const (1 + Random.State.int st 2)) in
      let words = ref [ x; y; c1; c2 ] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      let ops = [| Op.Add; Op.Mul; Op.Sub; Op.Shl; Op.And |] in
      for _ = 1 to 3 + Random.State.int st 5 do
        let op = ops.(Random.State.int st (Array.length ops)) in
        words := G.Builder.add2 b op (pick !words) (pick !words) :: !words
      done;
      ignore (G.Builder.add1 b (Op.Output "o") (List.hd !words));
      let g = G.Builder.finish b in
      (* the same graph with other constant values: only a wildcard
         pattern constant still matches *)
      let g' =
        G.map_ops g (function Op.Const v -> Op.Const (v + 7) | op -> op)
      in
      let singles =
        List.filter (fun i -> Op.is_compute (G.node g i).op) (List.init (G.length g) Fun.id)
        |> List.map (fun i -> [ i ])
      in
      List.for_all
        (fun ids ->
          let p = Pattern.of_embedding g ids in
          List.for_all
            (fun (wild, target) ->
              let plan = Match.compile ~wild_consts:wild p in
              let succs = G.succs target in
              List.for_all
                (fun root ->
                  let got = Match.run plan target ~succs ~root in
                  let first = Match.run ~first_only:true plan target ~succs ~root in
                  got = Match.matches_at ~wild_consts:wild p target ~root
                  && first = (match got with [] -> [] | b :: _ -> [ b ])
                  && List.sort_uniq compare got
                     = brute_force_bindings ~wild p target ~root)
                (List.init (G.length target) Fun.id))
            [ (false, g); (true, g); (false, g'); (true, g') ])
        (singles @ brute_force_embeddings g 3))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_greedy_le_exact; prop_greedy_independent; prop_miner_matches_brute_force;
      prop_matcher_matches_brute_force ]

let () =
  Alcotest.run "mining"
    [ ( "pattern",
        [ Alcotest.test_case "isomorphic graphs, equal codes" `Quick test_canonical_iso;
          Alcotest.test_case "input sharing distinguished" `Quick
            test_canonical_distinguishes_sharing;
          Alcotest.test_case "non-commutative ports" `Quick test_canonical_noncommutative;
          Alcotest.test_case "size and inputs" `Quick test_pattern_size_inputs ] );
      ( "miner",
        [ Alcotest.test_case "Fig. 3b: mul+add x4" `Quick test_mine_mul_add;
          Alcotest.test_case "Fig. 3d: add+add x3" `Quick test_mine_add_add;
          Alcotest.test_case "stats" `Quick test_mine_stats;
          Alcotest.test_case "min support filters" `Quick test_min_support_filters;
          Alcotest.test_case "embeddings agree with matcher" `Quick
            test_embeddings_are_occurrences;
          Alcotest.test_case "census golden, all apps" `Quick
            test_census_golden ] );
      ( "mis",
        [ Alcotest.test_case "Fig. 4: overlapping chain" `Quick test_mis_add_add;
          Alcotest.test_case "disjoint" `Quick test_mis_disjoint;
          Alcotest.test_case "triangle" `Quick test_mis_all_overlap;
          Alcotest.test_case "greedy independence" `Quick test_mis_greedy_is_independent;
          Alcotest.test_case "exact on path" `Quick test_mis_exact_matches_small ] );
      ( "analysis",
        [ Alcotest.test_case "ranked by MIS" `Quick test_analysis_ranked_by_mis;
          Alcotest.test_case "domain analysis sums MIS" `Quick test_analysis_many_sums ] );
      ( "match",
        [ Alcotest.test_case "occurrence count" `Quick test_match_occurrences_count;
          Alcotest.test_case "port discipline" `Quick test_match_respects_ports;
          Alcotest.test_case "commutative swap" `Quick test_match_commutative_swap ] );
      ("properties", props) ]
