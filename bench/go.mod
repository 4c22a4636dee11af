module blend/bench

go 1.22

require blend v0.0.0

replace blend => ../
