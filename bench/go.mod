module lccs/bench

go 1.22

require lccs v0.0.0

replace lccs => ../
