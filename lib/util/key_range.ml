let mem ~lo ~hi key =
  (match lo with None -> true | Some l -> String.compare l key <= 0)
  && match hi with None -> true | Some h -> String.compare key h <= 0
