(* Tests for the utility substrate: RNG, priority queue, deque,
   histograms, Zipf, table formatting. *)

module Rng = Chorus_util.Rng
module Pqueue = Chorus_util.Pqueue
module Deque = Chorus_util.Deque
module Histogram = Chorus_util.Histogram
module Zipf = Chorus_util.Zipf
module Tablefmt = Chorus_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.make 123 and b = Rng.make 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_pinned_stream () =
  (* literal SplitMix64 outputs: a change of representation must not
     move the stream *)
  let r = Rng.make 42 in
  List.iter
    (fun want -> Alcotest.(check int64) "bits64" want (Rng.bits64 r))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L ];
  Alcotest.(check int) "int 1000" 501 (Rng.int r 1000);
  Alcotest.(check int) "int 17 (rejection path)" 5 (Rng.int r 17);
  Alcotest.(check (float 0.0)) "float" 0x1.a3a39253bad8cp-3 (Rng.float r 1.0);
  Alcotest.(check (float 0.0)) "exponential" 0x1.0fb06dfdb4551p+6
    (Rng.exponential r 100.0);
  let s = Rng.split r in
  Alcotest.(check int64) "split" (-2214858861424239224L) (Rng.bits64 s);
  Alcotest.(check int64) "source after split" (-8854191821003330121L)
    (Rng.bits64 r)

let test_rng_copy_independent () =
  let r = Rng.make 9 in
  for _ = 1 to 3 do ignore (Rng.bits64 r) done;
  let c = Rng.copy r in
  let draw g = List.init 5 (fun _ -> Rng.bits64 g) in
  let from_copy = draw c in
  (* the copy's draws left the source where the copy started *)
  Alcotest.(check (list int64)) "same stream" from_copy (draw r);
  ignore (Rng.bits64 r);
  Alcotest.(check bool) "source draws leave the copy behind" true
    (Rng.bits64 c <> Rng.bits64 r)

let test_rng_split_independent () =
  let a = Rng.make 7 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_bounds () =
  let r = Rng.make 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-3) 3 in
    Alcotest.(check bool) "int_in range" true (v >= -3 && v <= 3)
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_uniformity () =
  (* chi-square-ish sanity: buckets within 3x of each other *)
  let r = Rng.make 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true (c > 700 && c < 1400))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.make 13 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r 100.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean approx 100 (got %.1f)" mean)
    true
    (mean > 90.0 && mean < 110.0)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

(* each thunk logs its own (time, seq) key *)
let add_key q log ~time ~seq =
  Pqueue.add q ~time ~seq (fun () -> log := (time, seq) :: !log)

(* pop everything: the keys in pop order *)
let drain q log =
  log := [];
  while not (Pqueue.is_empty q) do
    let time = Pqueue.min_time q in
    (Pqueue.pop q) ();
    Alcotest.(check int) "min_time is the popped time" time (fst (List.hd !log))
  done;
  List.rev !log

let drain_times xs =
  let q = Pqueue.create () and log = ref [] in
  List.iteri (fun seq time -> add_key q log ~time ~seq) xs;
  List.map fst (drain q log)

let test_pqueue_orders () =
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ]
    (drain_times [ 5; 1; 4; 1; 3; 9; 0 ])

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains any input sorted" ~count:200
    QCheck.(list small_int)
    (fun xs -> drain_times xs = List.sort compare xs)

let test_pqueue_fifo_ties () =
  (* equal times pop in sequence order *)
  let q = Pqueue.create () and log = ref [] in
  List.iter (fun seq -> add_key q log ~time:42 ~seq) [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "tie order" [ 0; 1; 2; 3 ]
    (List.map snd (drain q log))

let test_pqueue_growth_order () =
  (* 320 keys over eight distinct times, pushed in shuffled order with
     a pop after every eighth push: the heap doubles from its 64-slot
     start to 512 and every pop is the (time, seq) minimum *)
  let keys = Array.init 320 (fun seq -> (seq * 7 mod 8, seq)) in
  Rng.shuffle (Rng.make 4) keys;
  let q = Pqueue.create () and log = ref [] in
  let pending = ref [] in
  Array.iteri
    (fun i (time, seq) ->
      add_key q log ~time ~seq;
      pending := (time, seq) :: !pending;
      if i mod 8 = 7 then begin
        let want = List.fold_left min (List.hd !pending) !pending in
        (Pqueue.pop q) ();
        Alcotest.(check (pair int int)) "pop is the minimum" want
          (List.hd !log);
        pending := List.filter (( <> ) want) !pending
      end)
    keys;
  Alcotest.(check int) "length" 280 (Pqueue.length q);
  Alcotest.(check (list (pair int int))) "drains in (time, seq) order"
    (List.sort compare !pending) (drain q log);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pqueue.pop: empty")
    (fun () -> ignore (Pqueue.pop q : unit -> unit))

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)

let test_deque_basics () =
  let d = Deque.create () in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_front d 0;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Deque.to_list d);
  Alcotest.(check (option int)) "pop front" (Some 0) (Deque.pop_front d);
  Alcotest.(check (option int)) "pop back" (Some 2) (Deque.pop_back d);
  Alcotest.(check int) "length" 1 (Deque.length d)

let prop_deque_model =
  (* model-check against a list *)
  QCheck.Test.make ~name:"deque behaves like a list" ~count:200
    QCheck.(list (pair (int_range 0 3) small_int))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, v) ->
          match op with
          | 0 ->
            Deque.push_back d v;
            model := !model @ [ v ];
            true
          | 1 ->
            Deque.push_front d v;
            model := v :: !model;
            true
          | 2 -> (
            let got = Deque.pop_front d in
            match !model with
            | [] -> got = None
            | x :: rest ->
              model := rest;
              got = Some x)
          | _ -> (
            let got = Deque.pop_back d in
            match List.rev !model with
            | [] -> got = None
            | x :: rest ->
              model := List.rev rest;
              got = Some x))
        ops
      && Deque.to_list d = !model)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "p50" 3 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 5 (Histogram.percentile h 100.0);
  Alcotest.(check int) "max" 5 (Histogram.max_value h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h)

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"percentile within 5% relative error" ~count:100
    QCheck.(list_of_size Gen.(10 -- 200) (int_range 0 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact =
            sorted.(min (n - 1)
                      (max 0 (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
          in
          let approx = Histogram.percentile h p in
          approx >= exact
          && float_of_int approx <= (float_of_int exact *. 1.05) +. 2.0)
        [ 50.0; 90.0; 99.0 ])

let test_histogram_percentile_boundaries () =
  (* below [linear_limit] every value has its own bucket: percentiles
     are exact, including at the rank boundaries *)
  let h = Histogram.create () in
  for v = 0 to 63 do
    Histogram.record h v
  done;
  Alcotest.(check int) "p1 -> rank 1" 0 (Histogram.percentile h 1.0);
  Alcotest.(check int) "p25 -> rank 16" 15 (Histogram.percentile h 25.0);
  Alcotest.(check int) "p50 -> rank 32" 31 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100 -> rank 64" 63 (Histogram.percentile h 100.0);
  (* empty histogram *)
  Alcotest.(check int) "empty p99" 0 (Histogram.percentile (Histogram.create ()) 99.0);
  (* negative samples clamp to zero *)
  let hneg = Histogram.create () in
  Histogram.record hneg (-5);
  Alcotest.(check int) "negative clamps" 0 (Histogram.percentile hneg 50.0);
  (* the log region reports a bucket upper bound: within one
     sub-bucket (1/32 relative) above the sample, and capped at the
     observed max so a top-bucket percentile never exceeds it *)
  List.iter
    (fun v ->
      let h2 = Histogram.create () in
      Histogram.record h2 v;
      Histogram.record h2 (4 * v);
      let p50 = Histogram.percentile h2 50.0 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of {%d,%d} in [%d, %d+width]" v (4 * v) v v)
        true
        (p50 >= v && p50 <= v + (v / 32) + 1);
      Alcotest.(check int)
        (Printf.sprintf "p100 of {%d,..} capped at max" v)
        (4 * v)
        (Histogram.percentile h2 100.0))
    [ 64; 65; 127; 128; 1000; 65536; 1_000_000 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 1000;
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 2 (Histogram.count m);
  Alcotest.(check int) "max" 1000 (Histogram.max_value m);
  Alcotest.(check int) "min" 10 (Histogram.min_value m)

let test_histogram_huge_samples () =
  (* the log region's index arithmetic must not overflow near max_int *)
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      Alcotest.(check int) (Printf.sprintf "p50 of {%d}" v) v
        (Histogram.percentile h 50.0);
      Alcotest.(check int) (Printf.sprintf "p100 of {%d}" v) v
        (Histogram.percentile h 100.0))
    [ (1 lsl 57) + (31 lsl 52); (1 lsl 58) - 1; max_int ]

let test_histogram_footprint () =
  (* ten samples in one octave: one chunk of counters, not the 2,112
     a dense layout holds *)
  let h = Histogram.create () in
  for v = 1000 to 1009 do
    Histogram.record h v
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 200" words) true
    (words <= 200)

(* The reference layout written out densely: 64 exact buckets, then
   32 sub-buckets per power of two, 2,112 counters, indexed by
   multiply-and-divide (exact for values below 2^57). *)
module Dense = struct
  type t = {
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable max_v : int;
    mutable min_v : int;
  }

  let create () =
    { counts = Array.make (64 + (64 * 32)) 0; n = 0; total = 0.0; max_v = 0;
      min_v = max_int }

  let rec log2_floor v = if v <= 1 then 0 else 1 + log2_floor (v lsr 1)

  let bucket_of v =
    if v < 64 then v
    else begin
      let e = log2_floor v in
      64 + ((e - 6) * 32) + ((v - (1 lsl e)) * 32 / (1 lsl e))
    end

  let upper_bound b =
    if b < 64 then b
    else begin
      let e = ((b - 64) / 32) + 6 and frac = (b - 64) mod 32 in
      (1 lsl e) + (((frac + 1) * (1 lsl e) / 32) - 1)
    end

  let record t v =
    let v = max v 0 in
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. float_of_int v;
    t.max_v <- max t.max_v v;
    t.min_v <- min t.min_v v

  let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n

  let min_value t = if t.n = 0 then 0 else t.min_v

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.n))) in
      let rec go b seen =
        if b >= Array.length t.counts then t.max_v
        else begin
          let seen = seen + t.counts.(b) in
          if seen >= rank then min (upper_bound b) t.max_v else go (b + 1) seen
        end
      in
      go 0 0
    end

  let merge a b =
    { counts = Array.map2 ( + ) a.counts b.counts; n = a.n + b.n;
      total = a.total +. b.total; max_v = max a.max_v b.max_v;
      min_v = min a.min_v b.min_v }
end

let histogram_values =
  let specials =
    [ 0; -1; -1000; 63; 64 ]
    @ List.concat_map
        (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
        (List.init 57 Fun.id)
  in
  QCheck.Gen.(
    oneof
      [ oneofl specials;
        int_range (-100) 5000;
        int_range 0 56 >>= fun k -> int_range 0 ((1 lsl (k + 1)) - 1) ])

let prop_histogram_dense_model =
  QCheck.Test.make ~name:"histogram agrees with the dense layout" ~count:300
    QCheck.(
      make
        ~print:Print.(pair (list int) (list int))
        Gen.(pair (list histogram_values) (list histogram_values)))
    (fun (xs, ys) ->
      let fill l =
        let h = Histogram.create () and d = Dense.create () in
        List.iter (fun v -> Histogram.record h v; Dense.record d v) l;
        (h, d)
      in
      let same (h, d) =
        let eqf a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        Histogram.count h = d.Dense.n
        && eqf (Histogram.total h) d.Dense.total
        && eqf (Histogram.mean h) (Dense.mean d)
        && Histogram.min_value h = Dense.min_value d
        && Histogram.max_value h = d.Dense.max_v
        && List.for_all
             (fun p -> Histogram.percentile h p = Dense.percentile d p)
             [ 0.1; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]
      in
      let (hx, dx) as x = fill xs and (hy, dy) as y = fill ys in
      same x && same y
      && same (Histogram.merge hx hy, Dense.merge dx dy)
      (* merging leaves both inputs as they were *)
      && same x && same y)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let test_zipf_skew () =
  let z = Zipf.make ~n:100 ~theta:1.0 in
  let r = Rng.make 3 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = Zipf.sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 much hotter than rank 50" true
    (counts.(0) > 10 * max 1 counts.(50));
  (* pmf sums to 1 *)
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Zipf.probability z i
  done;
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1.0 !total

let test_zipf_uniform_theta0 () =
  let z = Zipf.make ~n:10 ~theta:0.0 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform mass" 0.1 (Zipf.probability z i)
  done

(* 200,000 draws against the exact pmf: one chi-square bucket per head
   rank (the first 50) and one for the tail, judged at p = 0.001 with
   the Wilson-Hilferty quantile; every draw must lie in [0, n) *)
let test_zipf_fits_pmf () =
  List.iter
    (fun (n, theta) ->
      let z = Zipf.make ~n ~theta in
      let r = Rng.make 11 in
      let head = min n 50 in
      let buckets = if n > head then head + 1 else head in
      let counts = Array.make buckets 0 in
      let draws = 200_000 in
      for _ = 1 to draws do
        let i = Zipf.sample z r in
        if i < 0 || i >= n then
          Alcotest.failf "n=%d theta=%g: draw %d outside [0, n)" n theta i;
        let b = min i head in
        counts.(b) <- counts.(b) + 1
      done;
      let p i =
        if i < head then Zipf.probability z i
        else
          1.0
          -. List.fold_left ( +. ) 0.0
               (List.init head (fun j -> Zipf.probability z j))
      in
      let chi2 = ref 0.0 in
      Array.iteri
        (fun i c ->
          let e = float_of_int draws *. p i in
          let d = float_of_int c -. e in
          chi2 := !chi2 +. (d *. d /. e))
        counts;
      let df = float_of_int (buckets - 1) in
      let critical =
        if buckets = 1 then 0.0
        else
          let a = 2.0 /. (9.0 *. df) in
          df *. ((1.0 -. a +. (3.0902 *. sqrt a)) ** 3.0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d theta=%g: chi2 %.1f <= %.1f (%d buckets)" n
           theta !chi2 critical buckets)
        true (!chi2 <= critical))
    [ (1, 0.99); (10, 0.0); (128, 0.7); (1_000, 1.0); (1_000, 1.5);
      (1_000_000, 0.99) ]

(* the first draws at the E24 scale, so that no edit changes them
   unnoticed *)
let test_zipf_pinned_draws () =
  let z = Zipf.make ~n:1_000_000 ~theta:0.99 in
  let r = Rng.make 42 in
  let draws = List.init 8 (fun _ -> Zipf.sample z r) in
  Alcotest.(check (list int)) "first 8 draws"
    [ 27; 114236; 22131; 8831; 599475; 3; 51048; 11 ] draws

(* set-up is three constants whatever n is: make allocates a few words,
   and the sampler holds no table, not even one allocated straight into
   the major heap *)
let test_zipf_constant_setup () =
  let w0 = Gc.minor_words () in
  let z = Sys.opaque_identity (Zipf.make ~n:1_000_000 ~theta:0.99) in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "make allocated %.0f minor words < 100" w)
    true (w < 100.0);
  let size = Obj.reachable_words (Obj.repr z) in
  Alcotest.(check bool) (Printf.sprintf "sampler is %d words < 100" size)
    true (size < 100)

let test_zipf_rejects_bad_args () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "n = 0" (fun () -> Zipf.make ~n:0 ~theta:1.0);
  raises "n < 0" (fun () -> Zipf.make ~n:(-3) ~theta:1.0);
  raises "theta < 0" (fun () -> Zipf.make ~n:10 ~theta:(-0.5));
  raises "theta nan" (fun () -> Zipf.make ~n:10 ~theta:Float.nan);
  let z = Zipf.make ~n:10 ~theta:1.0 in
  raises "rank n" (fun () -> Zipf.probability z 10);
  raises "rank < 0" (fun () -> Zipf.probability z (-1))

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)

let test_table_renders () =
  let t =
    Tablefmt.create ~title:"demo"
      ~columns:[ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "22" ];
  let s = Tablefmt.to_string t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0
    && String.sub s 0 11 = "== demo ==\n");
  let csv = Tablefmt.to_csv t in
  Alcotest.(check string) "csv" "name,value\nalpha,1\nb,22\n" csv

let test_table_rejects_bad_row () =
  let t =
    Tablefmt.create ~title:"x" ~columns:[ ("a", Tablefmt.Left) ]
  in
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Tablefmt.add_row (x): 2 cells for 1 columns")
    (fun () -> Tablefmt.add_row t [ "1"; "2" ])

let test_csv_escaping () =
  let t = Tablefmt.create ~title:"e" ~columns:[ ("c", Tablefmt.Left) ] in
  Tablefmt.add_row t [ "has,comma" ];
  Tablefmt.add_row t [ "has\"quote" ];
  Alcotest.(check string) "escaped" "c\n\"has,comma\"\n\"has\"\"quote\"\n"
    (Tablefmt.to_csv t)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "chorus-util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "copy independent" `Quick
            test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean ] );
      ( "pqueue",
        [ Alcotest.test_case "orders" `Quick test_pqueue_orders;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "order past growth" `Quick
            test_pqueue_growth_order;
          qt prop_pqueue_sorts ] );
      ( "deque",
        [ Alcotest.test_case "basics" `Quick test_deque_basics;
          qt prop_deque_model ] );
      ( "histogram",
        [ Alcotest.test_case "exact small values" `Quick
            test_histogram_exact_small;
          Alcotest.test_case "percentile boundaries" `Quick
            test_histogram_percentile_boundaries;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "huge samples" `Quick
            test_histogram_huge_samples;
          Alcotest.test_case "footprint" `Quick test_histogram_footprint;
          qt prop_histogram_percentile_bounded;
          qt prop_histogram_dense_model ] );
      ( "zipf",
        [ Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "uniform at theta 0" `Quick
            test_zipf_uniform_theta0;
          Alcotest.test_case "fits the exact pmf" `Quick test_zipf_fits_pmf;
          Alcotest.test_case "pinned draws" `Quick test_zipf_pinned_draws;
          Alcotest.test_case "constant set-up" `Quick
            test_zipf_constant_setup;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_zipf_rejects_bad_args ] );
      ( "tablefmt",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "bad row rejected" `Quick
            test_table_rejects_bad_row;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping ] ) ]
