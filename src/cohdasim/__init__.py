"""Asynchronous decentralized predictive scheduling for virtual power
plants, embedded in a deterministic simulated message network."""
