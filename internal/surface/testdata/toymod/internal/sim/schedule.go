package sim
