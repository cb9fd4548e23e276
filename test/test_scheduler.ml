module Scheduler = Gcs_util.Scheduler

(* Drain a packed scheduler into (prio, seq, handle) pop order. *)
let drain (q : Scheduler.t) =
  let rec go acc =
    if q.size () = 0 then List.rev acc
    else
      let p = q.min_prio () and s = q.min_seq () in
      let v = q.pop_min () in
      go ((p, s, v) :: acc)
  in
  go []

let test_empty_sentinels () =
  List.iter
    (fun kind ->
      let q = Scheduler.make kind in
      Alcotest.(check bool)
        (Scheduler.kind_name kind ^ " empty min_prio")
        true
        (q.Scheduler.min_prio () = infinity);
      Alcotest.(check int)
        (Scheduler.kind_name kind ^ " empty min_seq")
        max_int (q.Scheduler.min_seq ()))
    Scheduler.all_kinds

let test_basic_order () =
  List.iter
    (fun kind ->
      let q = Scheduler.make kind in
      List.iteri
        (fun seq p -> q.Scheduler.push ~prio:p ~seq seq)
        [ 3.; 1.; 2.; 1.; 0.5 ];
      let popped = List.map (fun (p, _, _) -> p) (drain q) in
      Alcotest.(check (list (float 0.)))
        (Scheduler.kind_name kind ^ " sorted")
        [ 0.5; 1.; 1.; 2.; 3. ]
        popped)
    Scheduler.all_kinds

(* Handles name payloads the caller keeps, here the strings of [names]. *)
let test_tie_by_seq () =
  let names = [| "a"; "b"; "c" |] in
  List.iter
    (fun kind ->
      let q = Scheduler.make kind in
      q.Scheduler.push ~prio:1. ~seq:2 1;
      q.Scheduler.push ~prio:1. ~seq:0 0;
      q.Scheduler.push ~prio:1. ~seq:7 2;
      let vals = List.map (fun (_, _, h) -> names.(h)) (drain q) in
      Alcotest.(check (list string))
        (Scheduler.kind_name kind ^ " seq ties")
        [ "a"; "b"; "c" ] vals)
    Scheduler.all_kinds

let test_sorted_keep () =
  List.iter
    (fun kind ->
      let q = Scheduler.make kind in
      List.iteri (fun seq v -> q.Scheduler.push ~prio:(float_of_int v) ~seq v)
        [ 4; 1; 3; 2 ];
      let kept = q.Scheduler.sorted ~keep:(fun v -> v mod 2 = 0) in
      Alcotest.(check (list int))
        (Scheduler.kind_name kind ^ " keep filters, order preserved")
        [ 2; 4 ]
        (List.map (fun (_, _, v) -> v) kept);
      Alcotest.(check int)
        (Scheduler.kind_name kind ^ " sorted is pure")
        4 (q.Scheduler.size ()))
    Scheduler.all_kinds

let test_clear () =
  List.iter
    (fun kind ->
      let q = Scheduler.make kind in
      for i = 0 to 99 do
        q.Scheduler.push ~prio:(float_of_int (i mod 7)) ~seq:i i
      done;
      q.Scheduler.clear ();
      Alcotest.(check int)
        (Scheduler.kind_name kind ^ " cleared")
        0 (q.Scheduler.size ());
      (* Usable after clear. *)
      q.Scheduler.push ~prio:5. ~seq:0 0;
      Alcotest.(check bool)
        (Scheduler.kind_name kind ^ " usable after clear")
        true
        (q.Scheduler.min_prio () = 5.))
    Scheduler.all_kinds

(* ------------------------------------------------------------------ *)
(* Model test: the calendar queue must pop in exactly the binary        *)
(* heap's order under random interleavings of pushes, pops, and         *)
(* re-keys. A re-key is what the engine does when a timer's fire time   *)
(* moves: it pushes the same payload again under a new (prio, seq) and  *)
(* leaves the old entry as a ghost — so ghosts and duplicates are part  *)
(* of the workload, not an edge case.                                   *)
(* ------------------------------------------------------------------ *)

type op = Push of float | Pop | Rekey of float

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (* Mix clustered priorities (typical simulation: short horizon ahead
           of now) with occasional far outliers to stress calendar resize
           and year-wrap. *)
        ( 4,
          map (fun p -> Push p) (float_range 0. 50.) );
        (1, map (fun p -> Push (p *. 1000.)) (float_range 0. 10.));
        (2, return Pop);
        (1, map (fun p -> Rekey p) (float_range 0. 80.));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Push p -> Printf.sprintf "push %g" p
             | Pop -> "pop"
             | Rekey p -> Printf.sprintf "rekey %g" p)
           ops))
    QCheck.Gen.(list_size (int_range 0 200) op_gen)

let prop_calendar_matches_heap =
  QCheck.Test.make
    ~name:"calendar pop order = binary heap pop order (push/pop/rekey)"
    ~count:400 ops_arb (fun ops ->
      let heap = Scheduler.make Scheduler.Binary_heap in
      let cal = Scheduler.make Scheduler.Calendar in
      let next_seq = ref 0 in
      let last_value = ref (-1) in
      let ok = ref true in
      let push p v =
        heap.Scheduler.push ~prio:p ~seq:!next_seq v;
        cal.Scheduler.push ~prio:p ~seq:!next_seq v;
        incr next_seq
      in
      List.iter
        (fun op ->
          (match op with
          | Push p ->
              push p !next_seq;
              last_value := !next_seq - 1
          | Rekey p -> if !last_value >= 0 then push p !last_value
          | Pop ->
              if heap.Scheduler.size () > 0 then begin
                let hp = heap.Scheduler.min_prio ()
                and hs = heap.Scheduler.min_seq () in
                let cp = cal.Scheduler.min_prio ()
                and cs = cal.Scheduler.min_seq () in
                let hv = heap.Scheduler.pop_min () in
                let cv = cal.Scheduler.pop_min () in
                if hp <> cp || hs <> cs || hv <> cv then ok := false
              end
              else if cal.Scheduler.size () <> 0 then ok := false);
          if heap.Scheduler.size () <> cal.Scheduler.size () then ok := false)
        ops;
      (* The sorted renderings must agree before draining... *)
      let keep = fun _ -> true in
      if heap.Scheduler.sorted ~keep <> cal.Scheduler.sorted ~keep then
        ok := false;
      (* ...and the remaining contents must drain identically. *)
      let rec tail () =
        match (heap.Scheduler.size (), cal.Scheduler.size ()) with
        | 0, 0 -> ()
        | 0, _ | _, 0 -> ok := false
        | _ ->
            let hp = heap.Scheduler.min_prio ()
            and hs = heap.Scheduler.min_seq () in
            let cp = cal.Scheduler.min_prio ()
            and cs = cal.Scheduler.min_seq () in
            let hv = heap.Scheduler.pop_min () in
            let cv = cal.Scheduler.pop_min () in
            if hp <> cp || hs <> cs || hv <> cv then ok := false else tail ()
      in
      tail ();
      !ok)

let prop_calendar_sorts =
  QCheck.Test.make ~name:"calendar drains any multiset in (prio, seq) order"
    ~count:300
    QCheck.(list (float_range (-100.) 100.))
    (fun xs ->
      let q = Scheduler.make Scheduler.Calendar in
      List.iteri (fun seq p -> q.Scheduler.push ~prio:p ~seq seq) xs;
      let keys = List.map (fun (p, s, _) -> (p, s)) (drain q) in
      keys = List.sort compare keys && List.length keys = List.length xs)

(* Model test: every scheduler against a sorted (prio, seq) list under
   random interleavings of pushes and pops. This is the one check of
   [Binary_heap] against something other than itself (the calendar queue
   is checked against [Binary_heap] above). Most priorities are small
   integers, so ties — which only [seq] may break — are common. Sizes
   must agree after every operation, and [min_value] must name what
   [pop_min] then removes. *)
type model_op = M_push of float | M_pop

let model_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function M_push p -> Printf.sprintf "push %g" p | M_pop -> "pop")
           ops))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             (2, map (fun p -> M_push (float_of_int p)) (int_range (-5) 5));
             (1, map (fun p -> M_push p) (float_range (-50.) 50.));
             (2, return M_pop);
           ]))

let prop_model =
  QCheck.Test.make
    ~name:"random push/pop interleavings match the sorted-list model"
    ~count:500 model_ops_arb (fun ops ->
      List.for_all
        (fun kind ->
          let q = Scheduler.make kind in
          let model = ref [] and next_seq = ref 0 and ok = ref true in
          let pop () =
            match !model with
            | [] -> if q.Scheduler.size () <> 0 then ok := false
            | (p, s) :: rest ->
                let mp = q.Scheduler.min_prio () and ms = q.Scheduler.min_seq () in
                let peeked = q.Scheduler.min_value () in
                let v = q.Scheduler.pop_min () in
                if mp <> p || ms <> s || peeked <> s || v <> s then ok := false;
                model := rest
          in
          List.iter
            (fun op ->
              (match op with
              | M_push p ->
                  q.Scheduler.push ~prio:p ~seq:!next_seq !next_seq;
                  model := List.merge compare !model [ (p, !next_seq) ];
                  incr next_seq
              | M_pop -> pop ());
              if q.Scheduler.size () <> List.length !model then ok := false)
            ops;
          (* The remaining contents must drain in model order too. *)
          while !ok && !model <> [] do
            pop ();
            if q.Scheduler.size () <> List.length !model then ok := false
          done;
          !ok && q.Scheduler.size () = 0)
        Scheduler.all_kinds)

(* Handle property: the engine hands out handles from a free list and
   pushes a popped handle again, so every push must come back out of
   exactly one pop. Random interleavings of pushes, bursts (which grow the
   columns well past their first capacity and take the calendar through
   its resizes), pops, partial drains (which shrink the calendar again)
   and [clear] (whose handles go back to the free list unpopped). After
   the script, [sorted] must equal the drain order and the drain must
   return exactly the handles still live. *)
type handle_op =
  | H_push of float
  | H_burst of int * float
  | H_pop
  | H_drain of int
  | H_clear

let handle_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | H_push p -> Printf.sprintf "push %g" p
             | H_burst (k, p) -> Printf.sprintf "burst %d@%g" k p
             | H_pop -> "pop"
             | H_drain k -> Printf.sprintf "drain %d" k
             | H_clear -> "clear")
           ops))
    QCheck.Gen.(
      list_size (int_range 0 40)
        (frequency
           [
             (4, map (fun p -> H_push p) (float_range 0. 100.));
             (1, map (fun p -> H_push (p *. 1e4)) (float_range 0. 100.));
             ( 2,
               map2 (fun k p -> H_burst (k, p)) (int_range 1 300)
                 (float_range 0. 100.) );
             (3, return H_pop);
             (1, map (fun k -> H_drain k) (int_range 1 200));
             (1, return H_clear);
           ]))

let prop_handles_popped_once =
  QCheck.Test.make
    ~name:"handle reuse through growth and clear: each push popped once"
    ~count:200 handle_ops_arb (fun ops ->
      List.for_all
        (fun kind ->
          let q = Scheduler.make kind in
          let live = Hashtbl.create 64 in
          let free = ref [] and next = ref 0 and seq = ref 0 in
          let ok = ref true in
          let fresh () =
            match !free with
            | h :: rest ->
                free := rest;
                h
            | [] ->
                incr next;
                !next - 1
          in
          let push prio =
            let h = fresh () in
            q.Scheduler.push ~prio ~seq:!seq h;
            incr seq;
            Hashtbl.replace live h ()
          in
          let pop () =
            if q.Scheduler.size () > 0 then begin
              let h = q.Scheduler.pop_min () in
              if not (Hashtbl.mem live h) then ok := false;
              Hashtbl.remove live h;
              free := h :: !free
            end
          in
          List.iter
            (fun op ->
              (match op with
              | H_push p -> push p
              | H_burst (k, p) ->
                  for i = 0 to k - 1 do
                    push (p +. float_of_int (i mod 17))
                  done
              | H_pop -> pop ()
              | H_drain k ->
                  for _ = 1 to k do
                    pop ()
                  done
              | H_clear ->
                  q.Scheduler.clear ();
                  Hashtbl.iter (fun h () -> free := h :: !free) live;
                  Hashtbl.reset live);
              if q.Scheduler.size () <> Hashtbl.length live then ok := false)
            ops;
          let rendered = q.Scheduler.sorted ~keep:(fun _ -> true) in
          let drained = drain q in
          let handles = List.map (fun (_, _, h) -> h) drained in
          !ok && rendered = drained
          && List.length handles = Hashtbl.length live
          && List.for_all (Hashtbl.mem live) handles
          && List.length (List.sort_uniq compare handles) = List.length handles)
        Scheduler.all_kinds)

let test_kind_of_string () =
  Alcotest.(check bool)
    "heap parses" true
    (Scheduler.kind_of_string "heap" = Ok Scheduler.Binary_heap);
  Alcotest.(check bool)
    "calendar parses" true
    (Scheduler.kind_of_string "calendar" = Ok Scheduler.Calendar);
  Alcotest.(check bool)
    "junk rejected" true
    (match Scheduler.kind_of_string "splay" with Error _ -> true | Ok _ -> false)

let suite =
  [
    Alcotest.test_case "empty sentinels" `Quick test_empty_sentinels;
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "seq ties" `Quick test_tie_by_seq;
    Alcotest.test_case "sorted ?keep" `Quick test_sorted_keep;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "kind_of_string" `Quick test_kind_of_string;
    QCheck_alcotest.to_alcotest prop_calendar_matches_heap;
    QCheck_alcotest.to_alcotest prop_calendar_sorts;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_handles_popped_once;
  ]
