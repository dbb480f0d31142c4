let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Sample.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    (* statistics.quantiles, method='exclusive': integer cut points of the
       (ld + 1)-spaced grid, linear interpolation between neighbours *)
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None
  else begin
    (* nearest rank ceil(p n / 100) leaves n - rank samples above it;
       p = floor(100 (n - 10) / n) is the largest p keeping that >= 10 *)
    let p = 100 * (n - 10) / n in
    let rank = max 1 (((p * n) + 99) / 100) in
    Some (p, a.(rank - 1))
  end

let zipf_counts ~n ~s ~total =
  if n < 1 || total < 0 then invalid_arg "Sample.zipf_counts";
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> x /. sum *. float_of_int total) w in
  let counts = Array.map truncate exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  (* the [short] largest fractional parts round up; ties to the hotter rank *)
  let by_remainder = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (exact.(b) -. floor exact.(b)) (exact.(a) -. floor exact.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    let r = by_remainder.(i) in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let dealt rng ~groups ~size =
  let order = Array.init groups (fun _ -> permutation rng size) in
  Array.concat
    (List.init size (fun round ->
         Array.map (fun g -> (g * size) + order.(g).(round)) (permutation rng groups)))
