"""Exact desk-scale simulator and classical oracle suite for quantum
Carmichael-number certification and counting; import its modules by name."""
