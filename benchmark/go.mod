module streamlake/benchmark

go 1.22

require streamlake v0.0.0

replace streamlake => ../
