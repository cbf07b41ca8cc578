(* Order statistics over measured samples.

   Percentiles are nearest-rank: the q-th percentile of n samples is the
   ceil(q*n)-th smallest, and the samples ranked above it are "beyond" it.
   A tail percentile backed by only a handful of samples is noise, so
   [percentile] refuses one with fewer than [min_beyond] samples beyond. *)

type pct = { value : float; n : int; beyond : int }

exception Too_few_samples of { q : float; n : int; beyond : int; need : int }

let () =
  Printexc.register_printer (function
    | Too_few_samples { q; n; beyond; need } ->
        Some
          (Printf.sprintf "percentile %g of %d samples has %d beyond it (need %d)" q n beyond
             need)
    | _ -> None)

let sorted xs =
  let c = Array.copy xs in
  Array.sort Float.compare c;
  c

let rank q n = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile ?(min_beyond = 10) q xs =
  let n = Array.length xs in
  let beyond = if n = 0 then 0 else n - rank q n in
  if n = 0 || beyond < min_beyond then
    raise (Too_few_samples { q; n; beyond; need = min_beyond });
  { value = (sorted xs).(rank q n - 1); n; beyond }

(* Median without a tail requirement (layer means, setup repeats). *)
let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let s = sorted xs in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n
