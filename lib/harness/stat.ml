let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun a x -> a +. log (max 1e-9 x)) 0.0 xs
         /. float_of_int (List.length xs))

(* Centered two-pass form: the textbook E[xy] - E[x]E[y] expansion loses
   all significance when a series is (nearly) constant — the subtraction
   of two large almost-equal sums can leave positive float dust where the
   true variance is zero, and the quotient then explodes instead of being
   caught by a <= 0 guard. *)
let pearson_opt pts =
  match pts with
  | [] | [ _ ] -> None
  | _ ->
    let n = float_of_int (List.length pts) in
    let fold f = List.fold_left (fun a p -> a +. f p) 0.0 pts in
    let mx = fold fst /. n and my = fold snd /. n in
    let vx = fold (fun (x, _) -> (x -. mx) *. (x -. mx))
    and vy = fold (fun (_, y) -> (y -. my) *. (y -. my))
    and cov = fold (fun (x, y) -> (x -. mx) *. (y -. my)) in
    if vx <= 0.0 || vy <= 0.0 then None
    else
      (* clamp: rounding can push a perfect correlation past +/-1 *)
      Some (Float.max (-1.0) (Float.min 1.0 (cov /. sqrt (vx *. vy))))

let pearson pts = match pearson_opt pts with Some r -> r | None -> 0.0

module Histogram = struct
  (* Fixed logarithmic buckets, 8 per octave: bucket 0 holds (-inf, 1],
     bucket i >= 1 holds (2^((i-1)/8), 2^(i/8)].  512 log buckets cover
     64 octaves — 1 to 1.8e19 — which spans any latency expressible in
     microseconds; everything above clamps into the last bucket.  The
     relative quantile error is bounded by the bucket width, 2^(1/8)
     (~9%), independent of sample count. *)
  let per_octave = 8
  let octaves = 64
  let nbuckets = 1 + (per_octave * octaves)

  type t = {
    counts : int array;
    mutable total : int;
    mutable minv : float;
    mutable maxv : float;
    mutable sum : float;
  }

  let create () =
    {
      counts = Array.make nbuckets 0;
      total = 0;
      minv = infinity;
      maxv = neg_infinity;
      sum = 0.0;
    }

  let index v =
    if v <= 1.0 then 0
    else
      let i = 1 + int_of_float (Float.floor (Float.log2 v *. float_of_int per_octave)) in
      if i >= nbuckets then nbuckets - 1 else i

  (* inclusive upper edge of bucket [i]; lower edge is [hi (i-1)] *)
  let hi i = Float.pow 2.0 (float_of_int i /. float_of_int per_octave)

  let add t v =
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.total <- t.total + 1;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v;
    t.sum <- t.sum +. v

  let merge a b =
    let t = create () in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.total <- a.total + b.total;
    t.minv <- Float.min a.minv b.minv;
    t.maxv <- Float.max a.maxv b.maxv;
    t.sum <- a.sum +. b.sum;
    t

  let percentile t p =
    if t.total = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.total)))
      in
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < nbuckets do
        seen := !seen + t.counts.(!i);
        incr i
      done;
      let b = !i - 1 in
      (* geometric bucket midpoint, clamped to the observed range so
         degenerate histograms (single sample) report exact values *)
      let mid =
        if b = 0 then hi 0 /. 2.0 else sqrt (hi (b - 1) *. hi b)
      in
      Float.max t.minv (Float.min t.maxv mid)
    end

  let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

  let to_json t =
    let quant p = Json.Float (percentile t p) in
    let buckets =
      let acc = ref [] in
      for i = nbuckets - 1 downto 0 do
        if t.counts.(i) > 0 then
          acc :=
            Json.Obj
              [
                ("le", Json.Float (hi i));
                ("count", Json.Int t.counts.(i));
              ]
            :: !acc
      done;
      !acc
    in
    Json.Obj
      [
        ("count", Json.Int t.total);
        ("min", Json.Float (if t.total = 0 then 0.0 else t.minv));
        ("max", Json.Float (if t.total = 0 then 0.0 else t.maxv));
        ("mean", Json.Float (mean t));
        ("p50", quant 50.0);
        ("p90", quant 90.0);
        ("p99", quant 99.0);
        ("buckets", Json.List buckets);
      ]
end
