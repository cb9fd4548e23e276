module Scheduler = Gcs_util.Scheduler

(* The priority travels in a key, as the engine passes it. *)
let push q ~prio ~seq h =
  let key = Scheduler.key () in
  key.Scheduler.prio <- prio;
  Scheduler.push q key ~seq h

(* Drain a heap into (prio, seq, handle) pop order. *)
let drain q =
  let rec go acc =
    if Scheduler.size q = 0 then List.rev acc
    else
      let p = Scheduler.min_prio q and s = Scheduler.min_seq q in
      let v = Scheduler.pop_min q in
      go ((p, s, v) :: acc)
  in
  go []

let test_empty_sentinels () =
  let q = Scheduler.create () in
  Alcotest.(check bool) "empty min_prio" true (Scheduler.min_prio q = infinity);
  Alcotest.(check int) "empty min_seq" max_int (Scheduler.min_seq q);
  let key = Scheduler.key () in
  Scheduler.min_into q key;
  Alcotest.(check bool) "empty min_into" true (key.Scheduler.prio = infinity);
  push q ~prio:2.5 ~seq:0 0;
  Scheduler.min_into q key;
  Alcotest.(check (float 0.)) "min_into" 2.5 key.Scheduler.prio

let test_basic_order () =
  let q = Scheduler.create () in
  List.iteri
    (fun seq p -> push q ~prio:p ~seq seq)
    [ 3.; 1.; 2.; 1.; 0.5 ];
  let popped = List.map (fun (p, _, _) -> p) (drain q) in
  Alcotest.(check (list (float 0.))) "sorted" [ 0.5; 1.; 1.; 2.; 3. ] popped

(* Handles name payloads the caller keeps, here the strings of [names]. *)
let test_tie_by_seq () =
  let names = [| "a"; "b"; "c" |] in
  let q = Scheduler.create () in
  push q ~prio:1. ~seq:2 1;
  push q ~prio:1. ~seq:0 0;
  push q ~prio:1. ~seq:7 2;
  let vals = List.map (fun (_, _, h) -> names.(h)) (drain q) in
  Alcotest.(check (list string)) "seq ties" [ "a"; "b"; "c" ] vals

(* Model test: the heap against a sorted (prio, seq) list under random
   interleavings of pushes and pops. Most priorities are small integers,
   so ties — which only [seq] may break — are common. Sizes must agree
   after every operation. *)
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
      let q = Scheduler.create () in
      let model = ref [] and next_seq = ref 0 and ok = ref true in
      let pop () =
        match !model with
        | [] -> if Scheduler.size q <> 0 then ok := false
        | (p, s) :: rest ->
            let mp = Scheduler.min_prio q and ms = Scheduler.min_seq q in
            let v = Scheduler.pop_min q in
            if mp <> p || ms <> s || v <> s then ok := false;
            model := rest
      in
      List.iter
        (fun op ->
          (match op with
          | M_push p ->
              push q ~prio:p ~seq:!next_seq !next_seq;
              model := List.merge compare !model [ (p, !next_seq) ];
              incr next_seq
          | M_pop -> pop ());
          if Scheduler.size q <> List.length !model then ok := false)
        ops;
      (* The remaining contents must drain in model order too. *)
      while !ok && !model <> [] do
        pop ();
        if Scheduler.size q <> List.length !model then ok := false
      done;
      !ok && Scheduler.size q = 0)

(* Handle property: the engine hands out handles from a free list and
   pushes a popped handle again, so every push must come back out of
   exactly one pop. Random interleavings of pushes, bursts (which grow the
   columns well past their first capacity), pops and partial drains. After
   the script, [sorted] must equal the drain order and the drain must
   return exactly the handles still live. *)
type handle_op = H_push of float | H_burst of int * float | H_pop | H_drain of int

let handle_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | H_push p -> Printf.sprintf "push %g" p
             | H_burst (k, p) -> Printf.sprintf "burst %d@%g" k p
             | H_pop -> "pop"
             | H_drain k -> Printf.sprintf "drain %d" k)
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
           ]))

let prop_handles_popped_once =
  QCheck.Test.make ~name:"handle reuse through growth: each push popped once"
    ~count:200 handle_ops_arb (fun ops ->
      let q = Scheduler.create () in
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
        push q ~prio ~seq:!seq h;
        incr seq;
        Hashtbl.replace live h ()
      in
      let pop () =
        if Scheduler.size q > 0 then begin
          let h = Scheduler.pop_min q in
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
              done);
          if Scheduler.size q <> Hashtbl.length live then ok := false)
        ops;
      let rendered = Scheduler.sorted q in
      let drained = drain q in
      let handles = List.map (fun (_, _, h) -> h) drained in
      !ok && rendered = drained
      && List.length handles = Hashtbl.length live
      && List.for_all (Hashtbl.mem live) handles
      && List.length (List.sort_uniq compare handles) = List.length handles)

let suite =
  [
    Alcotest.test_case "empty sentinels" `Quick test_empty_sentinels;
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "seq ties" `Quick test_tie_by_seq;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_handles_popped_once;
  ]
