"""`python -m taglok <command> ...`: the same CLI as the `taglok` script."""
from .cli import main
raise SystemExit(main())
