let minimize ~still_fails xs =
  let drop xs start span = List.filteri (fun i _ -> i < start || i >= start + span) xs in
  let rec pass xs span =
    let rec walk xs start =
      if start >= List.length xs then xs
      else
        let candidate = drop xs start span in
        if still_fails candidate then walk candidate start else walk xs (start + span)
    in
    let xs = walk xs 0 in
    if span = 1 then xs else pass xs (span / 2)
  in
  pass xs (max 1 (List.length xs / 2))
