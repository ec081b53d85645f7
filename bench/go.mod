module ap1000plus/bench

go 1.22

require ap1000plus v0.0.0

replace ap1000plus => ../
