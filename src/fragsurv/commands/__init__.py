"""The handlers of the commands that `fragsurv.cli` does not run itself, one module each.

`cli.main` imports a command's module only when that command runs, so `analyze` and `fi` load none of
them. Each module's `run(args)` takes the parsed arguments and returns the exit code.
"""
