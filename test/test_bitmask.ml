(* Packed-mask kernels against a per-bit reference: every kernel must
   answer as a loop over [Bitmask.get] does, on lengths at and around
   byte and word edges and on random lengths, for empty, single-bit,
   random and full masks, whether the mask was built in memory or read
   back from its packed bytes. No kernel may yield a slot at or past the
   mask's length. *)

open Snf_exec

let edge_lengths = [ 0; 1; 7; 8; 9; 63; 64; 65 ]

type shape = Empty | Single | Random of float | Full

let shape_name = function
  | Empty -> "empty"
  | Single -> "single"
  | Random d -> Printf.sprintf "random %.3f" d
  | Full -> "full"

(* A mask of [n] slots of [shape], drawn from [seed]. A full mask comes
   from [create n true]; with [via_read] every mask is written out and
   read back from its packed bytes at a nonzero offset. *)
let build n shape seed ~via_read =
  let st = Random.State.make [| seed |] in
  let m =
    match shape with
    | Full -> Bitmask.create n true
    | Empty -> Bitmask.create n false
    | Single ->
      let m = Bitmask.create n false in
      if n > 0 then Bitmask.set m (Random.State.int st n);
      m
    | Random d ->
      let m = Bitmask.create n false in
      for i = 0 to n - 1 do
        if Random.State.float st 1.0 < d then Bitmask.set m i
      done;
      m
  in
  if not via_read then m
  else begin
    let buf = Buffer.create 16 in
    Buffer.add_string buf "pre";
    Bitmask.write buf m;
    Buffer.add_string buf "post";
    Option.get (Bitmask.read ~length:n (Buffer.contents buf) ~pos:3)
  end

let gen =
  QCheck2.Gen.(
    let* n = oneof [ oneofl edge_lengths; int_range 0 4100 ] in
    let* shape =
      oneof
        [ oneofl [ Empty; Single; Full ];
          map (fun d -> Random d) (oneofl [ 0.001; 0.01; 0.5; 0.97 ]) ]
    in
    let* seed = int_bound 1_000_000 in
    let* via_read = bool in
    return (n, shape, seed, via_read))

let print (n, shape, seed, via_read) =
  Printf.sprintf "n=%d %s seed=%d%s" n (shape_name shape) seed
    (if via_read then " read" else "")

(* The per-bit reference: the set slots, ascending, by [get]. *)
let reference m =
  List.filter (Bitmask.get m) (List.init (Bitmask.length m) Fun.id)

let in_range m slots = List.for_all (fun s -> s >= 0 && s < Bitmask.length m) slots

(* A deterministic slot test, true on about half of the slots. *)
let coin seed s = Hashtbl.hash (seed, s) land 1 = 0

let check_iter_set =
  ("iter_set = per-bit get", fun m _ ->
      let seen = ref [] in
      Bitmask.iter_set (fun s -> seen := s :: !seen) m;
      let seen = List.rev !seen in
      in_range m seen && seen = reference m)

let check_to_slots =
  ("to_slots and popcount = per-bit get", fun m _ ->
      let slots = Array.to_list (Bitmask.to_slots m) in
      in_range m slots && slots = reference m && Bitmask.popcount m = List.length slots)

(* Scatter into a longer mask through a seeded permutation, against
   [get]/[set] slot by slot. *)
let check_scatter =
  ("scatter = per-bit get/set", fun m seed ->
      let n = Bitmask.length m in
      let wide = n + (seed mod 13) in
      let pos = Array.init wide Fun.id in
      Snf_crypto.Prng.shuffle (Snf_crypto.Prng.create seed) pos;
      let pos = Array.sub pos 0 n in
      let got = Bitmask.create wide false and want = Bitmask.create wide false in
      Bitmask.scatter m ~into:got pos;
      for j = 0 to n - 1 do
        if Bitmask.get m j then Bitmask.set want pos.(j)
      done;
      got = want)

(* [keep] is asked about set slots only, ascending, and the survivors
   are exactly the per-bit loop's. *)
let check_filter =
  ("filter = per-bit get/clear", fun m seed ->
      let n = Bitmask.length m in
      let want = Bitmask.create n false in
      List.iter (fun s -> if coin seed s then Bitmask.set want s) (reference m);
      let asked = ref [] in
      let before = reference m in
      Bitmask.filter m (fun s ->
          asked := s :: !asked;
          coin seed s);
      List.rev !asked = before && m = want)

(* Slots in a random order with repeats; [holds] is asked about the set
   ones only, in that order. *)
let check_select =
  ("select = per-bit get/set", fun m seed ->
      let n = Bitmask.length m in
      let st = Random.State.make [| seed; 1 |] in
      let slots =
        if n = 0 then [||]
        else Array.init (Random.State.int st ((2 * n) + 1)) (fun _ -> Random.State.int st n)
      in
      let want = Bitmask.create n false and want_asked = ref [] in
      Array.iter
        (fun s ->
          if Bitmask.get m s then begin
            want_asked := s :: !want_asked;
            if coin seed s then Bitmask.set want s
          end)
        slots;
      let asked = ref [] in
      let got =
        Bitmask.select m slots ~holds:(fun s ->
            asked := s :: !asked;
            coin seed s)
      in
      got = want && !asked = !want_asked)

let check_packed =
  ("packed bytes = per-bit get and write", fun m _ ->
      let p = Bitmask.packed m in
      let buf = Buffer.create 16 in
      Bitmask.write buf m;
      p = Buffer.contents buf
      && List.for_all
           (fun s -> Bitmask.get m s = (Char.code p.[s lsr 3] land (1 lsl (s land 7)) <> 0))
           (List.init (Bitmask.length m) Fun.id))

(* Each check takes the mask and the seed it was drawn from. *)
let checks =
  [ check_iter_set; check_to_slots; check_scatter; check_filter; check_select; check_packed ]

let props =
  List.map
    (fun (name, f) ->
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:300 ~name ~print gen (fun (n, shape, seed, via_read) ->
             f (build n shape seed ~via_read) seed)))
    checks

(* Every edge length under every shape, both ways of building. *)
let test_edges () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun n ->
          List.iter
            (fun shape ->
              List.iter
                (fun via_read ->
                  let case = (n, shape, 17 + n, via_read) in
                  if not (f (build n shape (17 + n) ~via_read) (17 + n)) then
                    Alcotest.failf "%s: %s" name (print case))
                [ false; true ])
            [ Empty; Single; Random 0.01; Random 0.5; Full ])
        edge_lengths)
    checks

let test_kernel_errors () =
  let m = Bitmask.of_bools [| true; false; true |] in
  Alcotest.check_raises "scatter needs one position per slot"
    (Invalid_argument "Bitmask.scatter: one position per slot") (fun () ->
      Bitmask.scatter m ~into:(Bitmask.create 8 false) [| 0; 1 |]);
  Alcotest.check_raises "scatter past its target" (Invalid_argument "Bitmask: slot out of range")
    (fun () -> Bitmask.scatter m ~into:(Bitmask.create 2 false) [| 0; 1; 2 |]);
  (* A clear slot's position is never read. *)
  Bitmask.scatter m ~into:(Bitmask.create 3 false) [| 0; 99; 2 |];
  Alcotest.check_raises "select past the mask" (Invalid_argument "Bitmask: slot out of range")
    (fun () -> ignore (Bitmask.select m [| 0; 3 |] ~holds:(fun _ -> true)));
  Alcotest.(check (array int)) "an empty mask has no slots" [||]
    (Bitmask.to_slots (Bitmask.create 0 true))

let suite =
  props
  @ [ Alcotest.test_case "kernels at byte and word edges" `Quick test_edges;
      Alcotest.test_case "kernel argument errors" `Quick test_kernel_errors ]
