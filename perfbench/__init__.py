"""Time-to-t_end benchmark harness for the lrvlasov solver; see README.md."""
